package monitor

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/secchan"
)

// TestDestroyASReleasesEverything runs many sandbox lifetimes through the
// create → serve → end-or-kill → destroy cycle and requires the monitor to
// come back to its starting state after every one: no page-table page,
// sandbox record, confined frame or common-region attachment may outlive
// the destroyed address space. A killed sandbox is only scrubbed at kill
// time, so its frames and channel counters must be released at destroy;
// a core whose CR3 still names the dead root must be parked on the kernel
// tables before the root frame is reissued.
func TestDestroyASReleasesEverything(t *testing.T) {
	mon := bootedMonitorN(t, 2)
	c0, c1 := mon.M.Cores[0], mon.M.Cores[1]
	if err := mon.EMCCommonCreate(c0, "model", 2); err != nil {
		t.Fatal(err)
	}
	monPool, _ := mon.M.Phys.RegionByName(RegionMonitor)
	cmaPool, _ := mon.M.Phys.RegionByName(RegionCMA)
	ptps, monFree, cmaFree := roleCount(mon, rolePTP), monPool.Free(), cmaPool.Free()
	var sent uint64

	for i := 0; i < 24; i++ {
		asid, err := mon.EMCCreateAS(c0, mem.OwnerTaskBase)
		if err != nil {
			t.Fatal(err)
		}
		// Every third address space is converted twice: an ended sandbox
		// followed by a second one the kernel converts the space into.
		var ids []SandboxID
		for n := 1 + i%3/2; n > 0; n-- {
			id, err := mon.EMCCreateSandbox(c0, asid, 8)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			va := paging.Addr(0x4000_0000 + i*0x20_0000)
			if err := declareConfined(mon, c0, id, va, 4, false); err != nil {
				t.Fatal(err)
			}
			if err := mon.EMCMapSandboxFault(c0, asid, va, true); err != nil {
				t.Fatal(err)
			}
			if err := attachCommon(mon, c0, id, "model", 0x7000_0000, false); err != nil {
				t.Fatal(err)
			}
			mon.sandboxes[id].conn = &secchan.Reliable{}
			mon.sandboxes[id].conn.Stats.Sent = 1
			sent++
			if n > 1 {
				if err := mon.EMCSandboxEnd(c0, id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := mon.EMCSwitchAS(c1, asid); err != nil {
			t.Fatal(err)
		}
		last := ids[len(ids)-1]
		if i%2 == 0 {
			mon.EMCKillSandbox(c0, last, "test kill")
		} else if err := mon.EMCSandboxEnd(c0, last); err != nil {
			t.Fatal(err)
		}
		root := c1.CR3Frame()
		if err := mon.EMCDestroyAS(c0, asid); err != nil {
			t.Fatal(err)
		}

		if c1.CR3Frame() == root {
			t.Fatalf("cycle %d: core 1 still loads the destroyed root %d", i, root)
		}
		for _, id := range ids {
			if _, ok := mon.SandboxInfo(id); ok {
				t.Fatalf("cycle %d: sandbox %d still registered after destroy", i, id)
			}
		}
		if len(mon.sandboxes) != 0 || roleCount(mon, roleConfined) != 0 {
			t.Fatalf("cycle %d: %d sandbox records, %d confined frames left",
				i, len(mon.sandboxes), roleCount(mon, roleConfined))
		}
		if roleCount(mon, rolePTP) != ptps || monPool.Free() != monFree || cmaPool.Free() != cmaFree {
			t.Fatalf("cycle %d: ptps %d (want %d), monitor pool free %d (want %d), CMA free %d (want %d)",
				i, roleCount(mon, rolePTP), ptps, monPool.Free(), monFree, cmaPool.Free(), cmaFree)
		}
		if n := len(mon.commons["model"].attached); n != 0 {
			t.Fatalf("cycle %d: %d common attachments outlive their sandboxes", i, n)
		}
		if got := mon.ChannelStats().Sent; got != sent {
			t.Fatalf("cycle %d: channel stats count %d sends, want %d", i, got, sent)
		}
		auditClean(t, mon, "after destroy")
	}
}
