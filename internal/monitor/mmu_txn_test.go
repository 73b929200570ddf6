package monitor

import (
	"slices"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/prof"
)

// The atomicity and rollback suite of the MMU transaction, run through
// every entry point into it: synchronous one-entry EMCs, EMCMapUserBatch
// and EMCRingDrain. A transaction either applies every request or none of
// them, and PTEWrites only ever counts writes that physically happened.

// mmuEntry is one way into the MMU transaction.
type mmuEntry struct {
	name string
	// atomic: the whole request list is one transaction. The sync entry
	// point runs every request as its own one-entry transaction, so a
	// failure scenario hands it only the failing request (see failing).
	atomic bool
	apply  func(t *testing.T, mon *Monitor, c *cpu.Core, asid ASID, reqs []RingReq) error
}

var mmuEntries = []mmuEntry{
	{name: "sync", apply: applySync},
	{name: "batch", atomic: true, apply: applyBatch},
	{name: "ring", atomic: true, apply: applyRing},
}

// forEachEntry runs fn once per entry point, as subtests.
func forEachEntry(t *testing.T, fn func(t *testing.T, ep mmuEntry)) {
	for _, ep := range mmuEntries {
		t.Run(ep.name, func(t *testing.T) { fn(t, ep) })
	}
}

// failing returns what ep submits of a scenario whose last request fails:
// the whole list as one atomic transaction, or only the failing request.
func (ep mmuEntry) failing(reqs []RingReq) []RingReq {
	if ep.atomic {
		return reqs
	}
	return reqs[len(reqs)-1:]
}

// applySync issues each request through its synchronous EMC, stopping at
// the first error.
func applySync(t *testing.T, mon *Monitor, c *cpu.Core, asid ASID, reqs []RingReq) error {
	for _, r := range reqs {
		var err error
		switch r.Op {
		case OpMap:
			err = mon.EMCMapUser(c, asid, r.VA, r.Frame, r.Flags)
		case OpUnmap:
			err = mon.EMCUnmapUser(c, asid, r.VA)
		case OpProtect:
			err = mon.EMCProtectUser(c, asid, r.VA, r.Flags)
		case OpReclaim:
			err = mon.EMCReclaimUser(c, asid, r.VA)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyBatch submits the requests as one EMCMapUserBatch, which must not
// mutate the caller's slice. Scenarios with other operations skip it.
func applyBatch(t *testing.T, mon *Monitor, c *cpu.Core, asid ASID, reqs []RingReq) error {
	batch := make([]MapReq, len(reqs))
	for i, r := range reqs {
		if r.Op != OpMap {
			t.Skip("EMCMapUserBatch carries only maps")
		}
		batch[i] = MapReq{VA: r.VA, Frame: r.Frame, Flags: r.Flags}
	}
	err := mon.EMCMapUserBatch(c, asid, batch)
	for i, r := range reqs {
		if batch[i] != (MapReq{VA: r.VA, Frame: r.Frame, Flags: r.Flags}) {
			t.Error("EMCMapUserBatch mutated the caller's request slice")
		}
	}
	return err
}

// applyRing drains the requests as one ring. A committed drain empties the
// ring; a rejected or rolled-back one leaves every entry in place for the
// kernel's synchronous fallback.
func applyRing(t *testing.T, mon *Monitor, c *cpu.Core, asid ASID, reqs []RingReq) error {
	ring := NewSubmitRing(asid, 0)
	for _, r := range reqs {
		if !ring.Push(r) {
			t.Fatal("ring full")
		}
	}
	err := mon.EMCRingDrain(c, ring)
	want := reqs
	if err == nil {
		want = nil
	}
	if got := ring.Pending(); !slices.Equal(got, want) {
		t.Errorf("ring after drain (err=%v) holds %+v, want %+v", err, got, want)
	}
	return err
}

func mustAlloc(t *testing.T, mon *Monitor, owner mem.Owner) mem.Frame {
	t.Helper()
	f, err := mon.M.Phys.Alloc(owner)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// drainMonitorPool exhausts the monitor's reserved page-table pool, then
// hands exactly keep frames back.
func drainMonitorPool(t *testing.T, mon *Monitor, keep int) {
	t.Helper()
	var drained []mem.Frame
	for {
		f, err := mon.M.Phys.AllocRegion(RegionMonitor, mem.OwnerMonitor)
		if err != nil {
			break
		}
		drained = append(drained, f)
	}
	if len(drained) < keep {
		t.Fatalf("monitor pool too small for the test: %d free frames", len(drained))
	}
	for _, f := range drained[:keep] {
		if err := mon.M.Phys.Free(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMapUserBatchValidationAtomic: a policy violation anywhere in the
// transaction — here the last request maps a frame owned by a different
// task — rejects it before any PTE is touched.
func TestMapUserBatchValidationAtomic(t *testing.T) {
	forEachEntry(t, func(t *testing.T, ep mmuEntry) {
		mon, c, asid, owner := ringTestAS(t, 2)
		as := mon.addrSpaces[asid]
		reqs := ep.failing([]RingReq{
			{Op: OpMap, VA: 0x10_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			{Op: OpMap, VA: 0x10_1000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			{Op: OpMap, VA: 0x10_2000, Frame: mustAlloc(t, mon, mem.OwnerTaskBase+2), Flags: MapFlags{Writable: true}},
		})
		pteBefore, framesBefore, ipisBefore := mon.Stats.PTEWrites, len(as.userFrames), mon.M.IPIsSent
		if err := ep.apply(t, mon, c, asid, reqs); err == nil {
			t.Fatal("transaction with a foreign-owned frame was accepted")
		}
		if got := mon.Stats.PTEWrites; got != pteBefore {
			t.Fatalf("validation failure wrote PTEs: %d -> %d", pteBefore, got)
		}
		if got := len(as.userFrames); got != framesBefore {
			t.Fatalf("validation failure changed installed mappings: %d -> %d", framesBefore, got)
		}
		for _, r := range reqs {
			if _, _, fault := as.tables.Walk(r.VA); fault == nil {
				t.Fatalf("va %#x mapped by a rejected transaction", r.VA)
			}
		}
		if mon.M.IPIsSent != ipisBefore {
			t.Fatal("rejected transaction sent shootdown IPIs")
		}
	})
}

// TestRingDrainRejectLeavesRingAndASUntouched: validation runs against the
// pending view, so a protect of a page neither the address space nor the
// transaction maps is rejected — and the map ahead of it never lands.
func TestRingDrainRejectLeavesRingAndASUntouched(t *testing.T) {
	forEachEntry(t, func(t *testing.T, ep mmuEntry) {
		mon, c, asid, owner := ringTestAS(t, 2)
		as := mon.addrSpaces[asid]
		reqs := ep.failing([]RingReq{
			{Op: OpMap, VA: 0x10_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			{Op: OpProtect, VA: 0x20_0000, Flags: MapFlags{}},
		})
		pteBefore, framesBefore, ipisBefore := mon.Stats.PTEWrites, len(as.userFrames), mon.M.IPIsSent
		if err := ep.apply(t, mon, c, asid, reqs); err == nil {
			t.Fatal("transaction committed despite an invalid protect")
		}
		if mon.Stats.PTEWrites != pteBefore {
			t.Fatalf("reject wrote %d PTEs", mon.Stats.PTEWrites-pteBefore)
		}
		if len(as.userFrames) != framesBefore {
			t.Fatal("reject changed installed mappings")
		}
		if _, _, fault := as.tables.Walk(0x10_0000); fault == nil {
			t.Fatal("rejected map is present in the tables")
		}
		if mon.M.IPIsSent != ipisBefore {
			t.Fatal("reject sent shootdown IPIs")
		}
		if ep.name == "ring" {
			if got := mon.Met.Value(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "rejected")); got != 1 {
				t.Fatalf("rejected drains metric = %d, want 1", got)
			}
		}
	})
}

// TestMapUserBatchRollbackOnCommitFailure: when the commit fails
// structurally (page-table-page exhaustion partway through), the installed
// prefix is rolled back — including restoring a leaf the transaction
// overwrote — and PTEWrites counts exactly the writes that happened.
func TestMapUserBatchRollbackOnCommitFailure(t *testing.T) {
	forEachEntry(t, func(t *testing.T, ep mmuEntry) {
		mon, c, asid, owner := ringTestAS(t, 1)
		as := mon.addrSpaces[asid]
		orig := mustAlloc(t, mon, owner)
		// Pre-map the leaf the transaction overwrites; this also builds the
		// page tables for the 0x10_xxxx region.
		if err := mon.EMCMapUser(c, asid, 0x10_0000, orig, MapFlags{Writable: true}); err != nil {
			t.Fatal(err)
		}
		reqs := ep.failing([]RingReq{
			// Overwrites the existing leaf (same leaf table: no PTP needed).
			{Op: OpMap, VA: 0x10_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			// Fresh slot in the same leaf table: no PTP needed.
			{Op: OpMap, VA: 0x10_1000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			// Different 1 GiB region: needs a new PTP, which must fail.
			{Op: OpMap, VA: 0x4000_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
		})
		drainMonitorPool(t, mon, 0)
		pteBefore, framesBefore := mon.Stats.PTEWrites, len(as.userFrames)

		if err := ep.apply(t, mon, c, asid, reqs); err == nil {
			t.Fatal("transaction committed despite page-table exhaustion")
		}
		pte, _, fault := as.tables.Walk(0x10_0000)
		if fault != nil || pte.Frame() != orig {
			t.Fatal("rollback did not restore the overwritten leaf")
		}
		if as.userFrames[0x10_0000] != orig {
			t.Fatalf("userFrames[0x10_0000] = %d, want %d", as.userFrames[0x10_0000], orig)
		}
		if _, _, fault := as.tables.Walk(0x10_1000); fault == nil {
			t.Fatal("rolled-back mapping still present at 0x10_1000")
		}
		if got := len(as.userFrames); got != framesBefore {
			t.Fatalf("failed transaction changed installed mappings: %d -> %d", framesBefore, got)
		}
		// Every install of the prefix happened and was undone: two writes
		// per prefix entry (4 for the atomic entry points), none surviving.
		if got, want := mon.Stats.PTEWrites-pteBefore, uint64(2*(len(reqs)-1)); got != want {
			t.Fatalf("PTEWrites delta = %d, want %d (installs + undos)", got, want)
		}
	})
}

// TestRingDrainCommitFailureRollsBack: rollback undoes every operation
// kind, not just maps — an unmapped leaf comes back and a protect's
// permission flip is reverted, frame accounting included.
func TestRingDrainCommitFailureRollsBack(t *testing.T) {
	forEachEntry(t, func(t *testing.T, ep mmuEntry) {
		mon, c, asid, owner := ringTestAS(t, 1)
		as := mon.addrSpaces[asid]
		a, b := mustAlloc(t, mon, owner), mustAlloc(t, mon, owner)
		if err := applySync(t, mon, c, asid, []RingReq{
			{Op: OpMap, VA: 0x10_0000, Frame: a, Flags: MapFlags{Writable: true}},
			{Op: OpMap, VA: 0x10_1000, Frame: b, Flags: MapFlags{Writable: true}},
		}); err != nil {
			t.Fatal(err)
		}
		reqs := ep.failing([]RingReq{
			{Op: OpUnmap, VA: 0x10_0000},
			{Op: OpProtect, VA: 0x10_1000, Flags: MapFlags{}},
			{Op: OpMap, VA: 0x4000_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
		})
		drainMonitorPool(t, mon, 0)
		pteBefore := mon.Stats.PTEWrites

		if err := ep.apply(t, mon, c, asid, reqs); err == nil {
			t.Fatal("transaction committed despite page-table exhaustion")
		}
		if pte, _, fault := as.tables.Walk(0x10_0000); fault != nil || pte.Frame() != a || as.userFrames[0x10_0000] != a {
			t.Fatal("rollback did not restore the unmapped leaf")
		}
		if pte, _, fault := as.tables.Walk(0x10_1000); fault != nil || !pte.Is(paging.Writable) {
			t.Fatal("rollback did not revert the permission flip")
		}
		if _, ok := as.userFrames[0x4000_0000]; ok {
			t.Fatal("failed mapping left accounted")
		}
		if got, want := mon.Stats.PTEWrites-pteBefore, uint64(2*(len(reqs)-1)); got != want {
			t.Fatalf("PTEWrites delta = %d, want %d (applies + undos)", got, want)
		}
	})
}

// TestMapUserBatchRollbackReleasesPTPs: page-table pages allocated on
// behalf of a transaction that later fails are returned to the monitor
// pool — those of its committed prefix and those the failing request
// linked before it ran out midway down its own path. A failed transaction
// neither mutates the address-space structure nor consumes PTP frames.
func TestMapUserBatchRollbackReleasesPTPs(t *testing.T) {
	forEachEntry(t, func(t *testing.T, ep mmuEntry) {
		mon, c, asid, owner := ringTestAS(t, 1)
		as := mon.addrSpaces[asid]
		// Build the page tables for the 0x10_xxxx region.
		if err := mon.EMCMapUser(c, asid, 0x10_0000, mustAlloc(t, mon, owner), MapFlags{Writable: true}); err != nil {
			t.Fatal(err)
		}
		reqs := ep.failing([]RingReq{
			// New 1 GiB region under the existing PDPT: allocates a PD and a PT.
			{Op: OpMap, VA: 0x4000_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			// Another new region: links its PD, then fails on the PT.
			{Op: OpMap, VA: 0x2_0000_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
		})
		prefix := len(reqs) - 1
		ptpFrames := 2*prefix + 1
		drainMonitorPool(t, mon, ptpFrames)
		pteBefore, ptpsBefore, framesBefore := mon.Stats.PTEWrites, len(mon.ptps), len(as.userFrames)

		if err := ep.apply(t, mon, c, asid, reqs); err == nil {
			t.Fatal("transaction committed despite page-table exhaustion")
		}
		for _, r := range reqs {
			if _, _, fault := as.tables.Walk(r.VA); fault == nil {
				t.Fatalf("rolled-back mapping still present at %#x", r.VA)
			}
		}
		if got := len(as.userFrames); got != framesBefore {
			t.Fatalf("failed transaction changed installed mappings: %d -> %d", framesBefore, got)
		}
		// Every PTP the transaction allocated is deregistered and back in
		// the pool: exactly that many region allocations succeed again.
		if got := len(mon.ptps); got != ptpsBefore {
			t.Fatalf("PTP registry grew across a failed transaction: %d -> %d", ptpsBefore, got)
		}
		for i := 0; i < ptpFrames; i++ {
			if _, err := mon.M.Phys.AllocRegion(RegionMonitor, mem.OwnerMonitor); err != nil {
				t.Fatalf("PTP frame %d not returned to the monitor pool: %v", i, err)
			}
		}
		if _, err := mon.M.Phys.AllocRegion(RegionMonitor, mem.OwnerMonitor); err == nil {
			t.Fatal("failed transaction leaked extra frames into the monitor pool")
		}
		// Installs + undos of the prefix, plus one parent-entry clear per
		// released PTP (5 for the atomic entry points, 1 for sync).
		if got, want := mon.Stats.PTEWrites-pteBefore, uint64(2*prefix+ptpFrames); got != want {
			t.Fatalf("PTEWrites delta = %d, want %d (installs + undos + PTP unlinks)", got, want)
		}
	})
}

// TestMapUserBatchRollbackClosesStaleTLB: a failed transaction must leave
// no stale translation on any core. The hazard window is mid-commit: after
// the transaction has installed a prefix of its leaves, another core can
// walk the tables and cache those not-yet-final translations. If the
// commit then fails, rollback rewrites the leaves — and without a
// shootdown the remote core keeps translating through mappings that no
// longer exist.
//
// The window is made deterministic with the page-table allocation hook:
// the failing request's PTP allocation happens after the prefix installed
// its leaves, so a remote access from inside the hook caches exactly the
// mid-commit state that rollback is about to undo.
func TestMapUserBatchRollbackClosesStaleTLB(t *testing.T) {
	forEachEntry(t, func(t *testing.T, ep mmuEntry) {
		mon, c0, asid, owner := ringTestAS(t, 2)
		c1 := mon.M.Cores[1]
		as := mon.addrSpaces[asid]
		orig := mustAlloc(t, mon, owner)
		// Pre-map the leaf the transaction overwrites; this also builds the
		// page tables for the 0x10_xxxx region.
		if err := mon.EMCMapUser(c0, asid, 0x10_0000, orig, MapFlags{Writable: true}); err != nil {
			t.Fatal(err)
		}
		// Core 1 runs in this address space.
		if err := mon.EMCSwitchAS(c1, asid); err != nil {
			t.Fatal(err)
		}
		root := c1.CR3Frame()
		reqs := ep.failing([]RingReq{
			{Op: OpMap, VA: 0x10_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			{Op: OpMap, VA: 0x10_1000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			// Different 1 GiB region: needs PD+PT, fails on the second.
			{Op: OpMap, VA: 0x4000_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
		})
		drainMonitorPool(t, mon, 1)

		// Mid-commit, core 1 touches every page the transaction has already
		// installed, caching the not-yet-final translations in its TLB.
		hookFired := false
		as.tables.OnPTPAlloc = func(mem.Frame) {
			hookFired = true
			c1.SetRing(3)
			for _, r := range reqs[:len(reqs)-1] {
				if _, tr := c1.Access(r.VA, paging.Read); tr != nil {
					t.Fatalf("mid-commit access of %#x faulted: %v", r.VA, tr)
				}
			}
			c1.SetRing(0)
		}
		defer func() { as.tables.OnPTPAlloc = nil }()

		if err := ep.apply(t, mon, c0, asid, reqs); err == nil {
			t.Fatal("transaction committed despite page-table exhaustion")
		}
		if !hookFired {
			t.Fatal("PTP hook never fired: the mid-commit window was not exercised")
		}
		// Rollback restored 0x10_0000 -> orig and unmapped 0x10_1000. No
		// core may still translate through the rolled-back leaves.
		if pte, ok := c1.TLB().Lookup(root, 0x10_0000); ok && pte.Frame() != orig {
			t.Fatalf("core 1 still caches rolled-back frame %d for 0x10_0000 (want %d or nothing)",
				pte.Frame(), orig)
		}
		if pte, ok := c1.TLB().Lookup(root, 0x10_1000); ok {
			t.Fatalf("core 1 still caches frame %d for unmapped 0x10_1000", pte.Frame())
		}
		c1.SetRing(3)
		if _, tr := c1.Access(0x10_1000, paging.Read); tr == nil || tr.Vector != cpu.VecPF {
			t.Fatalf("stale access after rollback: %v (want #PF)", tr)
		}
		c1.SetRing(0)
	})
}

// TestMapUserBatchCommits: the success path installs everything and counts
// one PTE write per request.
func TestMapUserBatchCommits(t *testing.T) {
	forEachEntry(t, func(t *testing.T, ep mmuEntry) {
		mon, c, asid, owner := ringTestAS(t, 1)
		as := mon.addrSpaces[asid]
		var reqs []RingReq
		for i := 0; i < 8; i++ {
			reqs = append(reqs, RingReq{
				Op:    OpMap,
				VA:    paging.Addr(0x10_0000 + i*mem.PageSize),
				Frame: mustAlloc(t, mon, owner),
				Flags: MapFlags{Writable: true},
			})
		}
		pteBefore := mon.Stats.PTEWrites
		if err := ep.apply(t, mon, c, asid, reqs); err != nil {
			t.Fatal(err)
		}
		if got := mon.Stats.PTEWrites - pteBefore; got != 8 {
			t.Fatalf("PTEWrites delta = %d, want 8", got)
		}
		for _, r := range reqs {
			pte, _, fault := as.tables.Walk(r.VA)
			if fault != nil || pte.Frame() != r.Frame {
				t.Fatalf("va %#x not mapped to frame %d", r.VA, r.Frame)
			}
			if as.userFrames[r.VA] != r.Frame {
				t.Fatalf("userFrames[%#x] not recorded", r.VA)
			}
		}
	})
}

// TestMapUserBatchPreservesPolicyFlags: validation and commit act on the
// same request copy, so flag adjustments made against the validated entry
// are what the installed PTEs carry (the *MapFlags contract of
// userFramePolicy), and the caller's requests are never mutated.
// Common-region mappings exercise the policy's flag-sensitive path: a
// sealed region rejects writable requests.
func TestMapUserBatchPreservesPolicyFlags(t *testing.T) {
	forEachEntry(t, func(t *testing.T, ep mmuEntry) {
		mon, c, asid, _ := ringTestAS(t, 1)
		id, err := mon.EMCCreateSandbox(c, asid, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.EMCCommonCreate(c, "batch-flags-model", 1); err != nil {
			t.Fatal(err)
		}
		if err := mon.EMCCommonAttach(c, id, "batch-flags-model", 0x4000_0000, false); err != nil {
			t.Fatal(err)
		}
		mon.sealCommons(c, mon.sandboxes[id])

		f := mon.commons["batch-flags-model"].frames[0]
		reqs := []RingReq{{Op: OpMap, VA: 0x4000_0000, Frame: f, Flags: MapFlags{Writable: true}}}
		if err := ep.apply(t, mon, c, asid, reqs); err == nil {
			t.Fatal("writable mapping of a sealed common region was accepted")
		}
		reqs[0].Flags.Writable = false
		if err := ep.apply(t, mon, c, asid, reqs); err != nil {
			t.Fatal(err)
		}
		pte, _, fault := mon.addrSpaces[asid].tables.Walk(0x4000_0000)
		if fault != nil {
			t.Fatal("read-only common mapping not installed")
		}
		if pte.Is(paging.Writable) {
			t.Fatal("sealed common region mapped writable")
		}
	})
}

// TestMapUserDenialChargesNothing: a user-mapping EMC denied in validation
// charges the bare gate round trip and counts no PTE write — a synchronous
// EMCMapUser of a foreign frame, and an EMCMapSandboxFault on an address
// space that hosts no sandbox. (The PTP-exhaustion counterpart is
// TestMapUserBatchRollbackReleasesPTPs/sync.)
func TestMapUserDenialChargesNothing(t *testing.T) {
	cases := []struct {
		name string
		call func(mon *Monitor, c *cpu.Core, asid ASID, foreign mem.Frame) error
	}{
		{"EMCMapUser", func(mon *Monitor, c *cpu.Core, asid ASID, foreign mem.Frame) error {
			return mon.EMCMapUser(c, asid, 0x10_0000, foreign, MapFlags{})
		}},
		{"EMCMapSandboxFault", func(mon *Monitor, c *cpu.Core, asid ASID, _ mem.Frame) error {
			return mon.EMCMapSandboxFault(c, asid, 0x10_0000, true)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mon, c, asid, _ := ringTestAS(t, 1)
			foreign := mustAlloc(t, mon, mem.OwnerTaskBase+2)
			pteBefore, clockBefore := mon.Stats.PTEWrites, mon.M.Clock.Now()
			if err := tc.call(mon, c, asid, foreign); err == nil {
				t.Fatal("the invalid request was accepted")
			}
			if got := mon.Stats.PTEWrites - pteBefore; got != 0 {
				t.Fatalf("denied %s counted %d PTE writes", tc.name, got)
			}
			if got := mon.M.Clock.Now() - clockBefore; got != costs.EMCRoundTrip {
				t.Fatalf("denied %s cost %d cycles, want the bare gate round trip %d",
					tc.name, got, costs.EMCRoundTrip)
			}
		})
	}
}

// TestPTEWriteAttributionParity: a map+protect pair puts the same cycles
// under monitor/pte-write in the folded profile whether it runs as two
// synchronous EMCs or as one ring drain — every path's PTE writes go
// through one accounting helper.
func TestPTEWriteAttributionParity(t *testing.T) {
	pteWriteCycles := func(ep mmuEntry) uint64 {
		mon, c, asid, owner := ringTestAS(t, 1)
		p := prof.New(&metrics.Attr{Tenant: metrics.NoTenant, Phase: metrics.PhaseCompute})
		mon.M.AttachProfiler(p)
		p.Start()
		reqs := []RingReq{
			{Op: OpMap, VA: 0x10_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
			{Op: OpProtect, VA: 0x10_0000, Flags: MapFlags{}},
		}
		if err := ep.apply(t, mon, c, asid, reqs); err != nil {
			t.Fatal(err)
		}
		p.Stop()
		var sum uint64
		for stack, n := range p.Stacks() {
			if strings.HasSuffix(stack, ";monitor/pte-write") {
				sum += n
			}
		}
		return sum
	}
	sync, ring := pteWriteCycles(mmuEntries[0]), pteWriteCycles(mmuEntries[2])
	if sync != ring || sync != 2*costs.EreborPTEWriteBody {
		t.Fatalf("monitor/pte-write cycles: sync %d, ring %d, want %d each",
			sync, ring, 2*costs.EreborPTEWriteBody)
	}
}
