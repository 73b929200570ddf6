package harness

import (
	"bytes"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// upperMain is a tiny service: read client input, uppercase it, reply.
func upperMain(c *sandbox.Container, os *libos.OS) {
	buf, n, err := os.ReceiveInput(4096, 8)
	if err != nil || n == 0 {
		return
	}
	data := make([]byte, n)
	os.Env.ReadMem(buf, data)
	out := bytes.ToUpper(data)
	os.Env.Charge(uint64(10 * n))
	if err := os.SendOutputBytes(out); err != nil {
		return
	}
	os.EndSession()
}

func launchUpper(t *testing.T, w *World) *sandbox.Container {
	t.Helper()
	c, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "upper", Owner: mem.OwnerTaskBase + 1,
		LibOS: libos.Config{HeapPages: 64},
		Main:  upperMain,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return c
}

func TestEndToEndSecureSession(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := launchUpper(t, w)
	s := NewSession(w)

	if err := s.Client.Start(); err != nil {
		t.Fatal(err)
	}
	s.Pump(2)
	if err := c.AcceptSession(s.MonTr); err != nil {
		t.Fatalf("AcceptSession: %v", err)
	}
	s.Pump(2)
	if err := s.Client.Finish(); err != nil {
		t.Fatalf("client Finish: %v", err)
	}
	secret := []byte("patient record #4411: diagnosis confidential")
	if err := s.Client.Send(secret); err != nil {
		t.Fatal(err)
	}
	s.Pump(2)

	w.K.Schedule()
	if berr := c.BootErr(); berr != nil {
		t.Fatalf("container boot: %v", berr)
	}
	s.Pump(2)

	got, err := s.Client.Recv()
	if err != nil {
		t.Fatalf("client Recv: %v", err)
	}
	want := strings.ToUpper(string(secret))
	if string(got) != want {
		t.Fatalf("got %q want %q", got, want)
	}

	// AV2/AV3: neither the proxy nor the host may ever see plaintext.
	for _, f := range s.Proxy.Seen {
		if bytes.Contains(f, secret) || bytes.Contains(f, []byte(want)) {
			t.Fatal("proxy observed plaintext client data")
		}
	}

	// The session ended: confined memory must be scrubbed.
	info, ok := c.Info()
	if !ok || !info.Destroyed {
		t.Fatalf("sandbox not cleaned up: %+v", info)
	}
}

func TestSandboxKilledOnPostDataSyscall(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	var leaked uint64
	c, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "evil", Owner: mem.OwnerTaskBase + 2,
		LibOS: libos.Config{HeapPages: 32},
		Main: func(c *sandbox.Container, os *libos.OS) {
			_, n, err := os.ReceiveInput(1024, 8)
			if err != nil || n == 0 {
				return
			}
			// AV2: try to exfiltrate via a write syscall after data install.
			leaked = os.Env.Syscall(abi.SysWrite, 1, 0, 64)
			// Unreachable: the monitor kills the sandbox at the exit.
			leaked = 0xDEAD
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.QueueClientInput(c.ID, []byte("secret-input")); err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()

	info, _ := c.Info()
	if !info.Destroyed {
		t.Fatal("sandbox survived a prohibited syscall")
	}
	if !strings.Contains(info.KillReason, "syscall") {
		t.Fatalf("kill reason = %q", info.KillReason)
	}
	if leaked == 0xDEAD {
		t.Fatal("sandbox continued executing after the kill")
	}
	if c.Task.State != kernel.TaskZombie {
		t.Fatal("hosting task not terminated")
	}
}

func TestLibOSOnlyModeRoundTrip(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeNative, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	c, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "upper-native", Owner: mem.OwnerTaskBase + 1,
		LibOS: libos.Config{HeapPages: 64},
		Main:  upperMain,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.K.DevEmuPush([]byte("hello libos"))
	w.K.Schedule()
	if berr := c.BootErr(); berr != nil {
		t.Fatalf("boot: %v", berr)
	}
	outs := w.K.DevEmuOutputs()
	if len(outs) != 1 || string(outs[0]) != "HELLO LIBOS" {
		t.Fatalf("outputs = %q", outs)
	}
}

// TestSessionsExpectWorldMRTD checks that every client a world builds
// expects the booted monitor's measurement, and that a client expecting
// any other value fails the handshake on the quote's MRTD.
func TestSessionsExpectWorldMRTD(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := ExpectedMRTD(w.Mon.MonitorImage())
	chaos, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64, Chaos: &faultinject.Plan{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cl   *Client
	}{
		{"NewSession", NewSession(w).Client},
		{"NewSession on a chaos world", NewSession(chaos).Client},
		{"NewNetSession", NewNetSession(w).Client},
	} {
		if c.cl.expected != want {
			t.Errorf("%s: client expects MRTD %x, want %x", c.name, c.cl.expected, want)
		}
	}

	firstBit, lastBit := want, want
	firstBit[0] ^= 1
	lastBit[tdx.MeasurementSize-1] ^= 0x80
	for _, wrong := range [][tdx.MeasurementSize]byte{firstBit, lastBit, {}} {
		w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
		if err != nil {
			t.Fatal(err)
		}
		c := launchUpper(t, w)
		s := NewSession(w)
		s.Client = NewClient(s.Client.tr, w.QK.Public(), wrong)
		if err := s.Client.Start(); err != nil {
			t.Fatal(err)
		}
		s.Pump(2)
		if err := c.AcceptSession(s.MonTr); err != nil {
			t.Fatalf("AcceptSession: %v", err)
		}
		s.Pump(2)
		err = s.Client.Finish()
		if err == nil || !strings.Contains(err.Error(), "attest: MRTD mismatch") {
			t.Errorf("client expecting %x: handshake error %v, want an MRTD mismatch", wrong[:4], err)
		}
		w.Close()
	}
}
