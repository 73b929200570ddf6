package harness

import (
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
)

// TestAuditAfterSession runs a complete sandbox session and then audits
// the monitor's global security invariants (monitor.Audit, the executable
// §8 claims): whatever the kernel and LibOS requested through EMCs, the
// invariants must still hold.
func TestAuditAfterSession(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 96})
	if err != nil {
		t.Fatal(err)
	}
	c := launchUpper(t, w)
	if err := w.Mon.QueueClientInput(c.ID, []byte("audit me")); err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	info, _ := c.Info()
	if !info.Destroyed {
		t.Fatal("session did not complete")
	}
	if v := w.Mon.Audit(); len(v) != 0 {
		t.Fatalf("invariant violations after session: %v", v)
	}
}

// TestAuditAfterKill verifies the invariants also hold right after the
// monitor kills a misbehaving sandbox (scrub + teardown must not leave
// dangling mappings or shared frames).
func TestAuditAfterKill(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 96})
	if err != nil {
		t.Fatal(err)
	}
	c, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "doomed", Owner: mem.OwnerTaskBase + 1,
		LibOS: libos.Config{HeapPages: 32},
		Main: func(c *sandbox.Container, os *libos.OS) {
			if _, n, _ := os.ReceiveInput(256, 4); n == 0 {
				return
			}
			os.Env.Syscall(abi.SysWrite, 1, 0, 8) // prohibited -> kill
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.QueueClientInput(c.ID, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	info, _ := c.Info()
	if !info.Destroyed || !strings.Contains(info.KillReason, "syscall") {
		t.Fatalf("kill path not taken: %+v", info)
	}
	if v := w.Mon.Audit(); len(v) != 0 {
		t.Fatalf("invariant violations after kill: %v", v)
	}
}

// TestAuditWithConcurrentTenants audits with several live sandboxes sharing
// a sealed common region.
func TestAuditWithConcurrentTenants(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := sandbox.CreateCommon(w.K, "ds", make([]byte, 32*1024)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c, err := sandbox.Launch(w.K, sandbox.Spec{
			Name: "tenant", Owner: mem.OwnerTaskBase + mem.Owner(1+i),
			LibOS:   libos.Config{HeapPages: 32},
			Commons: []sandbox.CommonRef{{Name: "ds"}},
			Main: func(c *sandbox.Container, os *libos.OS) {
				if _, n, _ := os.ReceiveInput(256, 4); n == 0 {
					return
				}
				var b [16]byte
				os.Env.ReadMem(c.CommonVAs["ds"], b[:])
				_ = os.SendOutputBytes(b[:])
				// Session stays open: live mappings remain for the audit.
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Mon.QueueClientInput(c.ID, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.K.Schedule()
	if v := w.Mon.Audit(); len(v) != 0 {
		t.Fatalf("invariant violations with live tenants: %v", v)
	}
}
