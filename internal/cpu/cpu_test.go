package cpu

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	phys := mem.NewPhysical(128 * mem.PageSize)
	return NewMachine(phys, 1, true)
}

func TestSensitiveOpsRequireRing0(t *testing.T) {
	m := newMachine(t)
	c := m.Cores[0]
	c.SetRing(3)
	if tr := c.WriteCR(CR0, CR0WP); tr == nil || tr.Vector != VecGP {
		t.Fatalf("mov-to-CR at CPL3: %v", tr)
	}
	if tr := c.WriteMSR(MSRLSTAR, 1); tr == nil || tr.Vector != VecGP {
		t.Fatalf("wrmsr at CPL3: %v", tr)
	}
	if tr := c.STAC(); tr == nil {
		t.Fatal("stac at CPL3")
	}
	if tr := c.LIDT(NewIDT()); tr == nil {
		t.Fatal("lidt at CPL3")
	}
	if _, tr := c.TDCall(0, nil); tr == nil {
		t.Fatal("tdcall at CPL3")
	}
}

func TestSensitiveOpsWorkNativelyAtRing0(t *testing.T) {
	m := newMachine(t)
	c := m.Cores[0]
	if tr := c.WriteCR(CR4, CR4SMEP|CR4SMAP); tr != nil {
		t.Fatal(tr)
	}
	if c.CR(CR4) != CR4SMEP|CR4SMAP {
		t.Fatalf("CR4 = %#x", c.CR(CR4))
	}
	if tr := c.WriteMSR(MSRPKRS, 42); tr != nil {
		t.Fatal(tr)
	}
	if c.MSR(MSRPKRS) != 42 {
		t.Fatal("MSR not written")
	}
	if tr := c.STAC(); tr != nil {
		t.Fatal(tr)
	}
	if !c.AC() {
		t.Fatal("AC not set by stac")
	}
	if tr := c.CLAC(); tr != nil {
		t.Fatal(tr)
	}
	if c.AC() {
		t.Fatal("AC not cleared by clac")
	}
}

func TestLockdownRequiresMonitorMode(t *testing.T) {
	m := newMachine(t)
	c := m.Cores[0]
	tok := m.MintMonitorToken()
	m.EngageLockdown(tok)
	if tr := c.WriteCR(CR0, CR0WP); tr == nil || tr.Vector != VecUD {
		t.Fatalf("sensitive op under lockdown: %v", tr)
	}
	c.EnterMonitorMode(tok)
	if tr := c.WriteCR(CR0, CR0WP); tr != nil {
		t.Fatalf("monitor-mode op failed: %v", tr)
	}
	c.ExitMonitorMode(tok)
	if tr := c.WriteCR(CR0, 0); tr == nil {
		t.Fatal("op allowed after monitor exit")
	}
}

func TestMonitorTokenSingleMint(t *testing.T) {
	m := newMachine(t)
	_ = m.MintMonitorToken()
	defer func() {
		if recover() == nil {
			t.Fatal("second token mint did not panic")
		}
	}()
	_ = m.MintMonitorToken()
}

func TestTokenFromOtherMachineRejected(t *testing.T) {
	m1 := newMachine(t)
	m2 := newMachine(t)
	tok2 := m2.MintMonitorToken()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign token accepted")
		}
	}()
	m1.Cores[0].EnterMonitorMode(tok2)
}

func TestLoadStoreThroughPaging(t *testing.T) {
	m := newMachine(t)
	c := m.Cores[0]
	tb, err := paging.New(m.Phys, func() (mem.Frame, error) { return m.Phys.Alloc(mem.OwnerKernel) })
	if err != nil {
		t.Fatal(err)
	}
	f, _ := m.Phys.Alloc(mem.OwnerKernel)
	va := paging.Addr(0x5000)
	if err := tb.Map(va, (paging.Present | paging.Writable | paging.User | paging.NX).WithFrame(f)); err != nil {
		t.Fatal(err)
	}
	if tr := c.WriteCR(CR3, uint64(tb.Root.Base())); tr != nil {
		t.Fatal(tr)
	}
	c.SetRing(3)
	msg := []byte("through the MMU")
	if tr := c.Store(va+8, msg); tr != nil {
		t.Fatal(tr)
	}
	got := make([]byte, len(msg))
	if tr := c.Load(va+8, got); tr != nil {
		t.Fatal(tr)
	}
	if string(got) != string(msg) {
		t.Fatalf("got %q", got)
	}
	// Unmapped access faults with #PF.
	if tr := c.Load(va+2*mem.PageSize, got); tr == nil || tr.Vector != VecPF {
		t.Fatalf("unmapped load: %v", tr)
	}
	// Execute of NX page faults.
	if _, tr := c.Access(va, paging.Execute); tr == nil || tr.Fault.Reason != paging.FaultNXViolation {
		t.Fatalf("NX fetch: %v", tr)
	}
}

func TestDeliverRestoresRing(t *testing.T) {
	m := newMachine(t)
	c := m.Cores[0]
	idt := NewIDT()
	sawRing := -1
	idt.Set(VecTimer, func(c *Core, tr *Trap) { sawRing = c.Ring })
	if tr := c.LIDT(idt); tr != nil {
		t.Fatal(tr)
	}
	c.SetRing(3)
	c.Deliver(&Trap{Vector: VecTimer})
	if sawRing != 0 {
		t.Fatalf("handler ran at ring %d", sawRing)
	}
	if c.Ring != 3 {
		t.Fatalf("ring not restored: %d", c.Ring)
	}
	if got := m.TrapCounts[VecTimer].Load(); got != 1 {
		t.Fatalf("trap count = %d", got)
	}
}

func TestDeliverChargesSyscallCosts(t *testing.T) {
	m := newMachine(t)
	c := m.Cores[0]
	idt := NewIDT()
	idt.Set(VecSyscall, func(c *Core, tr *Trap) {})
	if tr := c.LIDT(idt); tr != nil {
		t.Fatal(tr)
	}
	before := m.Clock.Now()
	c.Deliver(&Trap{Vector: VecSyscall})
	if got := m.Clock.Now() - before; got != costs.SyscallRoundTrip {
		t.Fatalf("empty syscall cost %d, want %d", got, costs.SyscallRoundTrip)
	}
}

func TestUnhandledTrapPanics(t *testing.T) {
	m := newMachine(t)
	c := m.Cores[0]
	if tr := c.LIDT(NewIDT()); tr != nil {
		t.Fatal(tr)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unhandled trap did not panic")
		}
	}()
	c.Deliver(&Trap{Vector: VecGP, Detail: "test"})
}

func TestSendUIPIRequiresValidTable(t *testing.T) {
	m := newMachine(t)
	c := m.Cores[0]
	if tr := c.SendUIPI(1); tr == nil || tr.Vector != VecGP {
		t.Fatalf("senduipi with invalid table: %v", tr)
	}
	if tr := c.WriteMSR(MSRUINTRTT, UINTRTTValid); tr != nil {
		t.Fatal(tr)
	}
	if tr := c.SendUIPI(1); tr != nil {
		t.Fatalf("senduipi with valid table failed: %v", tr)
	}
}

func TestRegsScrub(t *testing.T) {
	var r Regs
	for i := range r.GPR {
		r.GPR[i] = uint64(i + 1)
	}
	r.RIP = 99
	r.Scrub()
	for i, v := range r.GPR {
		if v != 0 {
			t.Fatalf("GPR[%d] = %d after scrub", i, v)
		}
	}
	if r.RIP != 0 {
		t.Fatal("RIP survived scrub")
	}
}
