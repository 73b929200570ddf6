package monitor

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// ringTestAS boots an N-core monitor, creates one address space and returns
// the pieces ring tests need.
func ringTestAS(t *testing.T, ncores int) (*Monitor, *cpu.Core, ASID, mem.Owner) {
	t.Helper()
	mon := bootedMonitorN(t, ncores)
	owner := mem.OwnerTaskBase + 1
	asid, err := mon.EMCCreateAS(mon.M.Cores[0], owner)
	if err != nil {
		t.Fatal(err)
	}
	return mon, mon.M.Cores[0], asid, owner
}

// primeCore makes core cache translations for the given VAs of asid.
func primeCore(t *testing.T, mon *Monitor, core *cpu.Core, asid ASID, vas ...paging.Addr) {
	t.Helper()
	if err := mon.EMCSwitchAS(core, asid); err != nil {
		t.Fatal(err)
	}
	core.SetRing(3)
	for _, va := range vas {
		if _, tr := core.Access(va, paging.Read); tr != nil {
			t.Fatalf("prime access %#x: %v", va, tr)
		}
	}
	core.SetRing(0)
}

// TestRingDrainAppliesAndCoalescesIPIs: one drain applies a mixed batch
// (overwrite map, permission flip, fresh map) under a single gate crossing,
// and every remote core that cached any touched translation receives exactly
// ONE IPI for the whole batch — not one per leaf.
func TestRingDrainAppliesAndCoalescesIPIs(t *testing.T) {
	mon, c0, asid, owner := ringTestAS(t, 3)
	as := mon.addrSpaces[asid]
	root := as.tables.Root

	a := mustAlloc(t, mon, owner)
	b := mustAlloc(t, mon, owner)
	repl := mustAlloc(t, mon, owner)
	fresh := mustAlloc(t, mon, owner)
	va1, va2, va3 := paging.Addr(0x10_0000), paging.Addr(0x10_1000), paging.Addr(0x10_2000)
	if err := mon.EMCUserMMU(c0, asid, RingReq{Op: OpMap, VA: va1, Frame: a, Flags: MapFlags{Writable: true}}); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCUserMMU(c0, asid, RingReq{Op: OpMap, VA: va2, Frame: b, Flags: MapFlags{Writable: true}}); err != nil {
		t.Fatal(err)
	}
	// Both remote cores cache both live translations.
	c1, c2 := mon.M.Cores[1], mon.M.Cores[2]
	primeCore(t, mon, c1, asid, va1, va2)
	primeCore(t, mon, c2, asid, va1, va2)

	ring := NewSubmitRing(asid, 0)
	for _, r := range []RingReq{
		{Op: OpMap, VA: va1, Frame: repl, Flags: MapFlags{Writable: true}}, // overwrite: flush
		{Op: OpProtect, VA: va2, Flags: MapFlags{}},                        // perm flip: flush
		{Op: OpMap, VA: va3, Frame: fresh, Flags: MapFlags{}},              // fresh: no flush
	} {
		if !ring.Push(r) {
			t.Fatal("ring full")
		}
	}

	ipisBefore, emcsBefore := mon.M.IPIsSent, mon.Stats.EMCs
	if err := mon.EMCRingDrain(c0, ring); err != nil {
		t.Fatal(err)
	}

	// All three ops landed.
	if pte, _, fault := as.tables.Walk(va1); fault != nil || pte.Frame() != repl {
		t.Fatalf("va1 not remapped to %d", repl)
	}
	if pte, _, fault := as.tables.Walk(va2); fault != nil || pte.Is(paging.Writable) {
		t.Fatal("va2 permission flip not applied")
	}
	if pte, _, fault := as.tables.Walk(va3); fault != nil || pte.Frame() != fresh {
		t.Fatal("va3 fresh map not applied")
	}
	if ring.Len() != 0 {
		t.Fatalf("ring not drained: %d entries left", ring.Len())
	}
	// One gate crossing for the whole batch.
	if got := mon.Stats.EMCs - emcsBefore; got != 1 {
		t.Fatalf("drain took %d gate crossings, want 1", got)
	}
	// Two leaves changed, two remote cores cached them: a synchronous path
	// would broadcast per leaf (4 IPIs); the coalesced drain sends exactly
	// one per remote core.
	if got := mon.M.IPIsSent - ipisBefore; got != 2 {
		t.Fatalf("drain sent %d IPIs, want 2 (one per remote core)", got)
	}
	// And both remote caches dropped the stale leaves.
	for i, rc := range []*cpu.Core{c1, c2} {
		if pte, ok := rc.TLB().Lookup(root, va1); ok && pte.Frame() == a {
			t.Fatalf("core %d still caches pre-drain frame for va1", i+1)
		}
		if pte, ok := rc.TLB().Lookup(root, va2); ok && pte.Is(paging.Writable) {
			t.Fatalf("core %d still caches writable va2", i+1)
		}
	}
	if got := mon.Met.Value(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "committed")); got != 1 {
		t.Fatalf("committed drains metric = %d, want 1", got)
	}
	if got := mon.Met.Value(metrics.FamilyRingCoalescedIPIs, metrics.KV("result", "sent")); got != 2 {
		t.Fatalf("coalesced sent metric = %d, want 2", got)
	}
	if got := mon.Met.Value(metrics.FamilyEMCRingOps, metrics.KV("op", "map")); got != 2 {
		t.Fatalf("ring map ops metric = %d, want 2", got)
	}
}

// TestRingDrainIntraBatchChainZeroFlush: the fault-handler pair — a fresh
// map followed by a same-flags protect of the same page — validates through
// the pending view and commits with an EMPTY invalidation set: no core can
// have cached a translation that never existed, so the drain sends zero
// IPIs even with remote cores running.
func TestRingDrainIntraBatchChainZeroFlush(t *testing.T) {
	mon, c0, asid, owner := ringTestAS(t, 2)
	as := mon.addrSpaces[asid]

	f := mustAlloc(t, mon, owner)
	ring := NewSubmitRing(asid, 0)
	ring.Push(RingReq{Op: OpMap, VA: 0x10_0000, Frame: f, Flags: MapFlags{Writable: true}})
	ring.Push(RingReq{Op: OpProtect, VA: 0x10_0000, Flags: MapFlags{Writable: true}})

	ipisBefore := mon.M.IPIsSent
	if err := mon.EMCRingDrain(c0, ring); err != nil {
		t.Fatal(err)
	}
	if pte, _, fault := as.tables.Walk(0x10_0000); fault != nil || pte.Frame() != f || !pte.Is(paging.Writable) {
		t.Fatal("map+protect chain not applied")
	}
	if got := mon.M.IPIsSent - ipisBefore; got != 0 {
		t.Fatalf("fresh-map drain sent %d IPIs, want 0", got)
	}
	if got := mon.Met.Value(metrics.FamilyRingCoalescedIPIs, metrics.KV("result", "sent")); got != 0 {
		t.Fatalf("coalesced sent metric = %d, want 0", got)
	}
}

// TestRingDrainDeterminism: two identically-constructed worlds running the
// same submission sequence land on the same virtual clock, the same stat
// counters and the same IPI ledger.
func TestRingDrainDeterminism(t *testing.T) {
	run := func() (clock, ptes, ipis, emcs uint64) {
		mon, c0, asid, owner := ringTestAS(t, 2)
		a := mustAlloc(t, mon, owner)
		b := mustAlloc(t, mon, owner)
		if err := mon.EMCUserMMU(c0, asid, RingReq{Op: OpMap, VA: 0x10_0000, Frame: a, Flags: MapFlags{Writable: true}}); err != nil {
			t.Fatal(err)
		}
		primeCore(t, mon, mon.M.Cores[1], asid, 0x10_0000)
		ring := NewSubmitRing(asid, 0)
		ring.Push(RingReq{Op: OpMap, VA: 0x10_0000, Frame: b, Flags: MapFlags{Writable: true}})
		ring.Push(RingReq{Op: OpUnmap, VA: 0x10_0000})
		ring.Push(RingReq{Op: OpMap, VA: 0x10_1000, Frame: a, Flags: MapFlags{}})
		if err := mon.EMCRingDrain(c0, ring); err != nil {
			t.Fatal(err)
		}
		return mon.M.Clock.Now(), mon.Stats.PTEWrites, mon.M.IPIsSent, mon.Stats.EMCs
	}
	c1, p1, i1, e1 := run()
	c2, p2, i2, e2 := run()
	if c1 != c2 || p1 != p2 || i1 != i2 || e1 != e2 {
		t.Fatalf("two identical runs diverged: clock %d/%d ptes %d/%d ipis %d/%d emcs %d/%d",
			c1, c2, p1, p2, i1, i2, e1, e2)
	}
}

// TestRingDrainChargesPerEntry: the drain body charges the documented base
// plus per-entry cost on top of the gate overhead.
func TestRingDrainChargesPerEntry(t *testing.T) {
	mon, c0, asid, owner := ringTestAS(t, 1)
	f := mustAlloc(t, mon, owner)
	ring := NewSubmitRing(asid, 0)
	ring.Push(RingReq{Op: OpMap, VA: 0x10_0000, Frame: f, Flags: MapFlags{}})

	empty := NewSubmitRing(asid, 0)
	before := mon.M.Clock.Now()
	if err := mon.EMCRingDrain(c0, empty); err != nil {
		t.Fatal(err)
	}
	emptyCost := mon.M.Clock.Now() - before

	before = mon.M.Clock.Now()
	if err := mon.EMCRingDrain(c0, ring); err != nil {
		t.Fatal(err)
	}
	oneCost := mon.M.Clock.Now() - before
	// One entry adds its drain share, the map's PTE write and the leaf-table
	// allocation path; it must exceed the empty drain by at least the
	// documented per-entry cost.
	if oneCost < emptyCost+costs.EreborRingDrainEntry {
		t.Fatalf("one-entry drain cost %d not above empty drain %d + per-entry %d",
			oneCost, emptyCost, costs.EreborRingDrainEntry)
	}
}
