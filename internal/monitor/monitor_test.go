package monitor

import (
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/isa"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

func bootedMonitor(t testing.TB) *Monitor {
	t.Helper()
	phys := mem.NewPhysical(48 << 20)
	m := cpu.NewMachine(phys, 1, true)
	host := tdx.NewHost()
	mod := tdx.NewModule(phys, host)
	m.TDX = mod
	qk, err := attest.NewQuotingKeyRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := Boot(m, mod, qk)
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// sandboxIoctl issues one /dev/erebor command from sandbox id the way its
// LibOS does: the command in RSI, its arguments in RDX, R10 and R8. Only a
// live sandbox's exits reach handleSandboxIoctl, which serves the command
// under the io gate kind. A refusal is an error naming the errno.
func sandboxIoctl(mon *Monitor, c *cpu.Core, id SandboxID, cmd, rdx, r10, r8 uint64) error {
	sb, ok := mon.sandboxes[id]
	if !ok || sb.destroyed {
		return fmt.Errorf("no live sandbox %d", id)
	}
	c.Regs.GPR[cpu.RSI], c.Regs.GPR[cpu.RDX] = cmd, rdx
	c.Regs.GPR[cpu.R10], c.Regs.GPR[cpu.R8] = r10, r8
	mon.handleSandboxIoctl(c, sb)
	if ret := c.Regs.GPR[cpu.RAX]; abi.IsError(ret) {
		return fmt.Errorf("ioctl %#x: errno %d", cmd, abi.Err(ret))
	}
	return nil
}

// roleCount counts the frames the frame index gives the role kind.
func roleCount(mon *Monitor, kind roleKind) int {
	n := 0
	for _, r := range mon.roles {
		if r.kind == kind {
			n++
		}
	}
	return n
}

// declareConfined declares npages of confined memory at va in sandbox id.
func declareConfined(mon *Monitor, c *cpu.Core, id SandboxID, va paging.Addr, npages uint64, exec bool) error {
	return sandboxIoctl(mon, c, id, abi.IoctlDeclareConfined, uint64(va), npages, boolTo64(exec))
}

// attachCommon attaches common region name at base in sandbox id. An
// unknown name reads as region id 0, which the ioctl refuses.
func attachCommon(mon *Monitor, c *cpu.Core, id SandboxID, name string, base paging.Addr, writable bool) error {
	rid, _ := mon.CommonRegionID(name)
	return sandboxIoctl(mon, c, id, abi.IoctlAttachCommon, uint64(base), rid, boolTo64(writable))
}

func TestMonitorTextProperties(t *testing.T) {
	text := buildMonitorText()
	pads := isa.FindEndbr(text)
	if len(pads) != 1 || pads[0] != 0 {
		t.Fatalf("endbr pads %v", pads)
	}
	// The monitor body legitimately contains sensitive instructions — it is
	// the only component allowed to hold them.
	if isa.Clean(text) {
		t.Fatal("monitor text contains no sensitive instructions (it must)")
	}
	if len(text)%mem.PageSize != 0 {
		t.Fatalf("monitor text %d bytes not page-aligned", len(text))
	}
}

func TestNormalPKRSPolicy(t *testing.T) {
	// The kernel's PKRS: monitor key fully denied, PTP write-denied,
	// default key open.
	cases := []struct {
		key        uint8
		read, want bool
	}{
		{KeyDefault, true, true},
		{KeyDefault, false, true},
		{KeyMonitor, true, false},
		{KeyMonitor, false, false},
		{KeyPTP, true, true},
		{KeyPTP, false, false},
	}
	for _, c := range cases {
		pte := (paging.Present | paging.Writable | paging.NX).WithFrame(1).WithKey(c.key)
		kind := paging.Read
		if !c.read {
			kind = paging.Write
		}
		ctx := paging.Context{Supervisor: true, WP: true, PKSEnabled: true, PKRS: NormalPKRS}
		got := paging.Check(0, pte, kind, ctx) == nil
		if got != c.want {
			t.Errorf("key=%d read=%v: allowed=%v want %v", c.key, c.read, got, c.want)
		}
	}
}

func TestBootStateMachine(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	// Lockdown is engaged; protection bits pinned.
	if !mon.M.Lockdown() {
		t.Fatal("lockdown not engaged")
	}
	if c.CR(cpu.CR4)&(cpu.CR4SMEP|cpu.CR4SMAP|cpu.CR4PKS|cpu.CR4CET) !=
		cpu.CR4SMEP|cpu.CR4SMAP|cpu.CR4PKS|cpu.CR4CET {
		t.Fatalf("CR4 = %#x", c.CR(cpu.CR4))
	}
	if c.CR(cpu.CR0)&cpu.CR0WP == 0 {
		t.Fatal("CR0.WP clear")
	}
	if uint32(c.MSR(cpu.MSRPKRS)) != NormalPKRS {
		t.Fatalf("PKRS = %#x", c.MSR(cpu.MSRPKRS))
	}
	// The syscall entry points at the monitor.
	if c.MSR(cpu.MSRLSTAR) != EMCEntryAddr {
		t.Fatalf("LSTAR = %#x", c.MSR(cpu.MSRLSTAR))
	}
}

func TestEMCPolicyDenials(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	// Clearing pinned CR bits is denied.
	if err := mon.EMCWriteCR(c, cpu.CR4, 0); err == nil {
		t.Fatal("CR4 protection bits cleared via EMC")
	}
	if err := mon.EMCWriteCR(c, cpu.CR0, 0); err == nil {
		t.Fatal("CR0.WP cleared via EMC")
	}
	// CR3 must be a registered root.
	if err := mon.EMCWriteCR(c, cpu.CR3, 0xDEAD000); err == nil {
		t.Fatal("unregistered CR3 accepted")
	}
	// Monitor-exclusive MSRs are denied.
	for _, msr := range []uint32{cpu.MSRPKRS, cpu.MSRLSTAR, cpu.MSRSCET, cpu.MSRPL0SSP, cpu.MSRUINTRTT} {
		if err := mon.EMCWriteMSR(c, msr, 0); err == nil {
			t.Fatalf("MSR %#x writable via EMC", msr)
		}
	}
	// Allow-listed MSRs work.
	if err := mon.EMCWriteMSR(c, cpu.MSRAPICTPR, 0x10); err != nil {
		t.Fatal(err)
	}
}

func TestEMCGateBalancesState(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	for i := 0; i < 10; i++ {
		if err := mon.EMCNop(c); err != nil {
			t.Fatal(err)
		}
		if c.InMonitor() {
			t.Fatal("monitor mode leaked")
		}
		if uint32(c.MSR(cpu.MSRPKRS)) != NormalPKRS {
			t.Fatal("PKRS leaked")
		}
		if c.SStack.Depth() != 0 {
			t.Fatal("shadow stack leaked")
		}
	}
	if mon.Stats.EMCs != 10 {
		t.Fatalf("EMC count %d", mon.Stats.EMCs)
	}
}

func TestAddressSpaceLifecycle(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mon.M.Phys.Alloc(mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	va := paging.Addr(0x40_0000)
	if err := mon.EMCUserMMU(c, asid, RingReq{Op: OpMap, VA: va, Frame: f, Flags: MapFlags{Writable: true}}); err != nil {
		t.Fatal(err)
	}
	if pte, _, fault := mon.addrSpaces[asid].tables.Lookup(va); fault != paging.FaultNone || pte.Frame() != f {
		t.Fatalf("translate: frame %d, fault %v", pte.Frame(), fault)
	}
	// Owner mismatch is denied.
	f2, _ := mon.M.Phys.Alloc(mem.OwnerTaskBase + 5)
	if err := mon.EMCUserMMU(c, asid, RingReq{Op: OpMap, VA: va + 4096, Frame: f2}); err == nil {
		t.Fatal("cross-owner frame mapped")
	}
	// Kernel-range VAs are denied.
	if err := mon.EMCUserMMU(c, asid, RingReq{Op: OpMap, VA: DirectMapBase, Frame: f}); err == nil {
		t.Fatal("kernel-range user mapping accepted")
	}
	if err := mon.EMCUserMMU(c, asid, RingReq{Op: OpUnmap, VA: va}); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCDestroyAS(c, asid); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCSwitchAS(c, asid); err == nil {
		t.Fatal("switched to destroyed AS")
	}
}

func TestSandboxBudgetEnforced(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mon.EMCCreateSandbox(c, asid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := declareConfined(mon, c, sb, 0x1_0000, 3, false); err != nil {
		t.Fatal(err)
	}
	if err := declareConfined(mon, c, sb, 0x9_0000, 3, false); err == nil {
		t.Fatal("budget exceeded silently")
	}
	// A second sandbox on the same AS is refused.
	if _, err := mon.EMCCreateSandbox(c, asid, 4); err == nil {
		t.Fatal("two sandboxes on one address space")
	}
}

func TestCommonRegionSealing(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	if err := mon.EMCCommonCreate(c, "db", 4); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCPopulateCommon(c, "db", 0, []byte("shared dataset")); err != nil {
		t.Fatal(err)
	}
	asid, _ := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	sb, _ := mon.EMCCreateSandbox(c, asid, 8)
	if err := attachCommon(mon, c, sb, "db", CommonBase, false); err != nil {
		t.Fatal(err)
	}
	// Data install seals the region.
	if err := mon.QueueClientInput(sb, []byte("client data")); err != nil {
		t.Fatal(err)
	}
	if err := declareConfined(mon, c, sb, 0x1_0000, 2, false); err != nil {
		t.Fatal(err)
	}
	// A writable attach still works before the data install seals the
	// region.
	if err := attachCommon(mon, c, sb, "db", CommonBase+0x100000, true); err != nil {
		t.Fatal("writable attach should still work pre-install")
	}
	// Populate after sealing is refused (simulate seal via sealCommons).
	mon.sealCommons(mon.M.Cores[0], mon.sandboxes[sb])
	if err := mon.EMCPopulateCommon(c, "db", 0, []byte("tamper")); err == nil {
		t.Fatal("populated a sealed region")
	}
	if err := attachCommon(mon, c, sb, "db", CommonBase+0x200000, true); err == nil {
		t.Fatal("writable attach to sealed region")
	}
}

// CommonBase mirrors the LibOS layout for attach targets in these tests.
const CommonBase = paging.Addr(0x0000_4000_0000)
