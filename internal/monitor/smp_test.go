package monitor

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// bootedMonitorN boots the monitor on a machine with ncores vCPUs.
func bootedMonitorN(t *testing.T, ncores int) *Monitor {
	t.Helper()
	phys := mem.NewPhysical(48 << 20)
	m := cpu.NewMachine(phys, ncores, true)
	host := tdx.NewHost()
	mod := tdx.NewModule(phys, host)
	m.TDX = mod
	qk, err := attest.NewQuotingKey()
	if err != nil {
		t.Fatal(err)
	}
	mon, err := Boot(m, mod, qk)
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

func TestBootProgramsEveryCore(t *testing.T) {
	mon := bootedMonitorN(t, 4)
	for i, c := range mon.M.Cores {
		if c.IDT() == nil {
			t.Fatalf("core %d has no IDT", i)
		}
		if c.MSR(cpu.MSRLSTAR) != EMCEntryAddr {
			t.Fatalf("core %d LSTAR = %#x", i, c.MSR(cpu.MSRLSTAR))
		}
		if uint32(c.MSR(cpu.MSRPKRS)) != NormalPKRS {
			t.Fatalf("core %d PKRS = %#x", i, c.MSR(cpu.MSRPKRS))
		}
		want := cpu.CR4SMEP | cpu.CR4SMAP | cpu.CR4PKS | cpu.CR4CET
		if c.CR(cpu.CR4)&want != want {
			t.Fatalf("core %d CR4 = %#x", i, c.CR(cpu.CR4))
		}
		if c.CR(cpu.CR0)&cpu.CR0WP == 0 {
			t.Fatalf("core %d CR0.WP clear", i)
		}
		if c.SStack == nil {
			t.Fatalf("core %d has no shadow stack", i)
		}
	}
}

func TestSetVectorEffectiveOnAllCores(t *testing.T) {
	mon := bootedMonitorN(t, 2)
	c0 := mon.M.Cores[0]
	var gotCore []int
	if err := mon.EMCSetVector(c0, cpu.VecDevice, func(c *cpu.Core, tr *cpu.Trap) {
		gotCore = append(gotCore, c.ID)
	}); err != nil {
		t.Fatal(err)
	}
	var sysCore []int
	if err := mon.EMCSetSyscallEntry(c0, func(c *cpu.Core, tr *cpu.Trap) {
		sysCore = append(sysCore, c.ID)
	}); err != nil {
		t.Fatal(err)
	}
	// A single registration through core 0's gate must catch deliveries on
	// every core: the live IDT is machine-global and monitor-owned.
	for _, c := range mon.M.Cores {
		c.Deliver(&cpu.Trap{Vector: cpu.VecDevice, Detail: "test device irq"})
		c.Deliver(&cpu.Trap{Vector: cpu.VecSyscall, Detail: "test syscall"})
	}
	if len(gotCore) != 2 || gotCore[0] != 0 || gotCore[1] != 1 {
		t.Fatalf("device handler ran on cores %v, want [0 1]", gotCore)
	}
	if len(sysCore) != 2 || sysCore[0] != 0 || sysCore[1] != 1 {
		t.Fatalf("syscall handler ran on cores %v, want [0 1]", sysCore)
	}
	if mon.Stats.RuntimeViolations != 0 {
		t.Fatalf("%d violations recorded", mon.Stats.RuntimeViolations)
	}
}

func TestUnmapShootdownClosesStaleTLB(t *testing.T) {
	mon := bootedMonitorN(t, 2)
	c0, c1 := mon.M.Cores[0], mon.M.Cores[1]
	asid, err := mon.EMCCreateAS(c0, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mon.M.Phys.Alloc(mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	va := paging.Addr(0x40_0000)
	if err := mon.EMCMapUser(c0, asid, va, f, MapFlags{Writable: true}); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCSwitchAS(c1, asid); err != nil {
		t.Fatal(err)
	}
	// Core 1 touches the page at ring 3: its TLB now caches the translation.
	c1.SetRing(3)
	if _, tr := c1.Access(va, paging.Read); tr != nil {
		t.Fatalf("priming access faulted: %v", tr)
	}
	c1.SetRing(0)
	root := c1.CR3Frame()
	if _, ok := c1.TLB().Lookup(root, va); !ok {
		t.Fatal("translation not cached on core 1")
	}

	// Core 0 unmaps the page. The EMC must shoot core 1's entry down — the
	// frame may be reissued to another owner immediately after.
	if err := mon.EMCUnmapUser(c0, asid, va); err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.TLB().Lookup(root, va); ok {
		t.Fatal("core 1 still caches the unmapped translation")
	}
	c1.SetRing(3)
	if _, tr := c1.Access(va, paging.Read); tr == nil || tr.Vector != cpu.VecPF {
		t.Fatalf("stale access after unmap: %v (want #PF)", tr)
	}
}

func TestDestroyASFlushesEveryCore(t *testing.T) {
	mon := bootedMonitorN(t, 2)
	c0, c1 := mon.M.Cores[0], mon.M.Cores[1]
	asid, err := mon.EMCCreateAS(c0, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mon.M.Phys.Alloc(mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	va := paging.Addr(0x40_0000)
	if err := mon.EMCMapUser(c0, asid, va, f, MapFlags{Writable: true}); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCSwitchAS(c1, asid); err != nil {
		t.Fatal(err)
	}
	c1.SetRing(3)
	if _, tr := c1.Access(va, paging.Read); tr != nil {
		t.Fatalf("priming access faulted: %v", tr)
	}
	c1.SetRing(0)
	root := c1.CR3Frame()

	// Park core 1 on the kernel tables, then destroy the address space:
	// every cached translation of the dead root must be gone everywhere.
	if err := mon.EMCSwitchAS(c1, 0); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCUnmapUser(c0, asid, va); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCDestroyAS(c0, asid); err != nil {
		t.Fatal(err)
	}
	for i, c := range mon.M.Cores {
		if _, ok := c.TLB().Lookup(root, va); ok {
			t.Fatalf("core %d still caches a translation of the destroyed AS", i)
		}
	}
}
