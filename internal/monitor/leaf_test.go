package monitor

import (
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/prof"
)

// The leaf-write contract of setLeaf, the one place the monitor writes a
// user leaf: a write is counted if and only if a leaf entry was stored, a
// present leaf replaced by a different one or cleared is flushed, and a
// first install is not.

// coldSandbox creates a sandbox on a fresh address space of mon and
// declares npages confined pages at va. Nothing is installed yet.
func coldSandbox(t *testing.T, mon *Monitor, va paging.Addr, npages uint64) *sbState {
	t.Helper()
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mon.EMCCreateSandbox(c, asid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := declareConfined(mon, c, id, va, npages, false); err != nil {
		t.Fatal(err)
	}
	return mon.sandboxes[id]
}

// TestPTEWritesCountStoredLeavesOnly: PTEWrites counts the leaf entries
// the monitor stored and nothing else — not the declared pages a session
// never touched, not the unmap of an absent leaf, and not a fault install
// that failed.
func TestPTEWritesCountStoredLeavesOnly(t *testing.T) {
	t.Run("session-end", func(t *testing.T) {
		mon := bootedMonitor(t)
		sb := coldSandbox(t, mon, 0x1_0000, 8)
		if err := mon.writeSandbox(sb, 0x1_0000, make([]byte, 3*mem.PageSize)); err != nil {
			t.Fatal(err)
		}
		before := mon.Stats.PTEWrites
		if err := mon.EMCSandboxEnd(mon.M.Cores[0], sb.id); err != nil {
			t.Fatal(err)
		}
		if got := mon.Stats.PTEWrites - before; got != 3 {
			t.Fatalf("ending a sandbox with 3 of 8 pages installed counted %d PTE writes, want 3", got)
		}
	})
	t.Run("unmap-absent", func(t *testing.T) {
		forEachEntry(t, func(t *testing.T, ep mmuEntry) {
			mon, c, asid, _ := ringTestAS(t, 1)
			before := mon.Stats.PTEWrites
			if err := ep.apply(t, mon, c, asid, []RingReq{{Op: OpUnmap, VA: 0x10_0000}}); err != nil {
				t.Fatal(err)
			}
			if got := mon.Stats.PTEWrites - before; got != 0 {
				t.Fatalf("unmapping an absent leaf counted %d PTE writes", got)
			}
		})
	})
	t.Run("failed-fault-install", func(t *testing.T) {
		mon := bootedMonitor(t)
		sb := coldSandbox(t, mon, 0x4000_0000, 1)
		drainMonitorPool(t, mon, 0)
		before := mon.Stats.PTEWrites
		if err := mon.EMCMapSandboxFault(mon.M.Cores[0], sb.asid, 0x4000_0000, true); err == nil {
			t.Fatal("fault install succeeded with no page-table page left")
		}
		if got := mon.Stats.PTEWrites - before; got != 0 {
			t.Fatalf("a failed fault install counted %d PTE writes", got)
		}
	})
}

// TestFirstInstallFlushesNothing: no core can have cached a translation
// that never existed, so installing a leaf where none was present charges
// no shootdown on any path; replacing a present leaf with a different one
// does. Each measured install lands in a leaf table an earlier install
// built, since a new page-table page is re-keyed with a shootdown of its
// own.
func TestFirstInstallFlushesNothing(t *testing.T) {
	// shootdownCycles runs fn under a profiler and returns the cycles it
	// charged under a cpu/shootdown frame.
	shootdownCycles := func(mon *Monitor, fn func() error) uint64 {
		t.Helper()
		p := prof.New(&metrics.Attr{Tenant: metrics.NoTenant, Phase: metrics.PhaseCompute})
		mon.M.AttachProfiler(p)
		p.Start()
		err := fn()
		p.Stop()
		mon.M.AttachProfiler(nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for stack, n := range p.Stacks() {
			if strings.Contains(stack, "cpu/shootdown") {
				sum += n
			}
		}
		return sum
	}

	mon, c, asid, owner := ringTestAS(t, 2)
	a, b := mustAlloc(t, mon, owner), mustAlloc(t, mon, owner)
	if err := mon.EMCUserMMU(c, asid, RingReq{Op: OpMap, VA: 0x10_3000, Frame: a}); err != nil {
		t.Fatal(err)
	}
	for _, va := range []paging.Addr{0x10_0000, 0x10_1000} {
		if n := shootdownCycles(mon, func() error {
			return mon.EMCUserMMU(c, asid, RingReq{Op: OpMap, VA: va, Frame: a, Flags: MapFlags{Writable: true}})
		}); n != 0 {
			t.Fatalf("first EMCUserMMU install at %#x charged %d shootdown cycles", va, n)
		}
	}
	ring := NewSubmitRing(asid, 0)
	ring.Push(RingReq{Op: OpMap, VA: 0x10_2000, Frame: b, Flags: MapFlags{Writable: true}})
	if n := shootdownCycles(mon, func() error { return mon.EMCRingDrain(c, ring) }); n != 0 {
		t.Fatalf("first ring-drained install charged %d shootdown cycles", n)
	}
	if n := shootdownCycles(mon, func() error {
		return mon.EMCUserMMU(c, asid, RingReq{Op: OpMap, VA: 0x10_0000, Frame: b, Flags: MapFlags{Writable: true}})
	}); n == 0 {
		t.Fatal("replacing a present leaf with a different one charged no shootdown")
	}

	mon = bootedMonitorN(t, 2)
	sb := coldSandbox(t, mon, 0x2000_0000, 3)
	c = mon.M.Cores[0]
	if err := mon.EMCCommonCreate(c, "first-install", 1); err != nil {
		t.Fatal(err)
	}
	if err := attachCommon(mon, c, sb.id, "first-install", 0x2010_0000, false); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCMapSandboxFault(c, sb.asid, 0x2000_2000, true); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		va    paging.Addr
		write bool
	}{{0x2000_0000, true}, {0x2000_1000, false}, {0x2010_0000, false}} {
		if n := shootdownCycles(mon, func() error {
			return mon.EMCMapSandboxFault(c, sb.asid, f.va, f.write)
		}); n != 0 {
			t.Fatalf("first sandbox-fault install at %#x charged %d shootdown cycles", f.va, n)
		}
	}
}

// TestSessionEndFreesFramesInVAOrder: the CMA pool is LIFO, so the order in
// which a finished sandbox frees its frames decides the next confined
// allocation. The same sandbox built, touched and ended on twenty fresh
// monitors must hand the next allocation the same frame every time: the
// one its highest page held, freed last.
func TestSessionEndFreesFramesInVAOrder(t *testing.T) {
	const base, npages = paging.Addr(0x1_0000), 8
	for run := 0; run < 20; run++ {
		mon := bootedMonitor(t)
		sb := coldSandbox(t, mon, base, npages)
		if err := mon.writeSandbox(sb, base, make([]byte, npages*mem.PageSize)); err != nil {
			t.Fatal(err)
		}
		last := sb.pages[base+(npages-1)*mem.PageSize].frame
		if err := mon.EMCSandboxEnd(mon.M.Cores[0], sb.id); err != nil {
			t.Fatal(err)
		}
		f, err := mon.M.Phys.AllocRegion(RegionCMA, mem.OwnerTaskBase)
		if err != nil {
			t.Fatal(err)
		}
		if f != last {
			t.Fatalf("run %d: next CMA frame is %d, want %d (the highest page's, freed last)", run, f, last)
		}
	}
}

// TestDestroyASFlushesAfterFailedClear: a leaf EMCDestroyAS cannot clear
// (its PDPT entry points outside physical memory) fails the call, but the
// destroy still clears every other leaf and flushes the root first, so no
// core keeps a translation of a leaf it did clear. Each failure is
// recorded.
func TestDestroyASFlushesAfterFailedClear(t *testing.T) {
	for run := 0; run < 20; run++ {
		mon := bootedMonitorN(t, 2)
		c0, c1 := mon.M.Cores[0], mon.M.Cores[1]
		asid, err := mon.EMCCreateAS(c0, mem.OwnerTaskBase)
		if err != nil {
			t.Fatal(err)
		}
		vas := []paging.Addr{0x40_0000, 0x4000_0000, 0x8000_0000}
		for _, va := range vas {
			if err := mon.EMCUserMMU(c0, asid, RingReq{Op: OpMap, VA: va, Frame: mustAlloc(t, mon, mem.OwnerTaskBase), Flags: MapFlags{Writable: true}}); err != nil {
				t.Fatal(err)
			}
		}
		primeCore(t, mon, c1, asid, 0x40_0000)
		as := mon.addrSpaces[asid]
		root := as.tables.Root
		pml4e, err := paging.ReadPTE(mon.M.Phys, root.Base())
		if err != nil {
			t.Fatal(err)
		}
		slot := pml4e.Frame().Base() + 1*8 // the PDPT entry of 0x4000_0000
		pdpte, err := paging.ReadPTE(mon.M.Phys, slot)
		if err != nil {
			t.Fatal(err)
		}
		if err := paging.WritePTE(mon.M.Phys, slot, pdpte.WithFrame(mem.Frame(mon.M.Phys.NumFrames()+1))); err != nil {
			t.Fatal(err)
		}
		violations := mon.Stats.RuntimeViolations

		if err := mon.EMCDestroyAS(c0, asid); err == nil {
			t.Fatal("destroy reported success with a leaf it could not clear")
		}
		if got := mon.Stats.RuntimeViolations - violations; got != 1 {
			t.Fatalf("run %d: %d violations recorded, want 1 for the failed clear", run, got)
		}
		if v := mon.violations[len(mon.violations)-1]; !strings.Contains(v, "0x40000000") {
			t.Fatalf("run %d: violation %q does not name the failed va", run, v)
		}
		for _, va := range []paging.Addr{0x40_0000, 0x8000_0000} {
			if _, ok := as.userFrames[va]; ok {
				t.Fatalf("run %d: leaf at %#x not cleared after the failed one", run, va)
			}
		}
		for _, c := range []*cpu.Core{c0, c1} {
			if n := c.TLB().InvalidateRoot(root); n != 0 {
				t.Fatalf("run %d: core %d still caches %d translations of the destroyed root", run, c.ID, n)
			}
		}
	}
}

// TestConfinedFrameMapsOnlyAtItsDeclaredVA: the kernel cannot map a
// confined frame a second time, not even inside its own sandbox's address
// space. Session end clears only the declared VA, so a second leaf would
// outlive the session and keep a window into the frame's next owner.
func TestConfinedFrameMapsOnlyAtItsDeclaredVA(t *testing.T) {
	const base, alias = paging.Addr(0x1_0000), paging.Addr(0x50_0000)
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	sb := coldSandbox(t, mon, base, 1)
	if err := mon.writeSandbox(sb, base, []byte("confined")); err != nil {
		t.Fatal(err)
	}
	f := sb.pages[base].frame
	err := mon.EMCUserMMU(c, sb.asid, RingReq{Op: OpMap, VA: alias, Frame: f, Flags: MapFlags{Writable: true}})
	if err == nil || !strings.Contains(err.Error(), "single-mapping policy") {
		t.Fatalf("second map of confined frame %d: %v, want a single-mapping denial", f, err)
	}
	if vs := mon.Audit(); len(vs) != 0 {
		t.Fatalf("audit after the refused alias: %v", vs)
	}
	if err := mon.EMCSandboxEnd(c, sb.id); err != nil {
		t.Fatal(err)
	}
	as := mon.addrSpaces[sb.asid]
	for va, g := range as.userFrames {
		if g == f {
			t.Fatalf("leaf at %#x still maps freed frame %d after session end", va, f)
		}
	}
	if pte, _, fault := as.tables.Lookup(alias); fault == paging.FaultNone {
		t.Fatalf("tables map %#x to frame %d after session end", alias, pte.Frame())
	}
}
