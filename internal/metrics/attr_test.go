package metrics

import (
	"slices"
	"testing"
)

// TestAttrSwitch: a Switch flushes exactly the closed window's cycles and
// shootdown cycles under that window's pair, a parked window flushes
// nothing, and a plain Tenant/Phase write neither records nor redirects.
func TestAttrSwitch(t *testing.T) {
	var clock uint64
	met := New()
	a := NewAttr(met, func() uint64 { return clock })
	phase := func(tenant, ph string) uint64 {
		return met.Value(FamilyTenantPhaseCycles, KV("phase", ph), KV("tenant", tenant))
	}
	sd := func(tenant string) uint64 { return met.Value(FamilyShootdownCycles, KV("tenant", tenant)) }

	// Cycles and shootdowns before the first Switch belong to no window.
	clock = 50
	a.AddShootdown(7)
	if got := a.Switch(3, PhaseCompute, 11); got != 0 {
		t.Fatalf("opening switch flushed %d cycles", got)
	}
	if a.Tenant != 3 || a.Phase != PhaseCompute || a.Span() != 11 || a.SpanDepth() != 1 {
		t.Fatalf("switch bound tenant %d phase %q scope %d (depth %d)", a.Tenant, a.Phase, a.Span(), a.SpanDepth())
	}
	if snap := met.Snapshot(); len(snap) != 0 {
		t.Fatalf("opening switch recorded %v", snap)
	}

	clock = 80
	a.AddShootdown(5)
	a.AddShootdown(4)
	a.Phase = PhaseOutput // a plain write: records nothing, redirects nothing
	if snap := met.Snapshot(); len(snap) != 0 {
		t.Fatalf("plain Phase write recorded %v", snap)
	}
	if got := a.Switch(NoTenant, PhaseFleet, 0); got != 30 {
		t.Fatalf("switch flushed %d cycles, want 30", got)
	}
	if got := phase("3", PhaseCompute); got != 30 {
		t.Fatalf("tenant 3 compute = %d cycles, want 30", got)
	}
	if got := phase("3", PhaseOutput); got != 0 {
		t.Fatalf("plain write redirected %d cycles to output", got)
	}
	if got := sd("3"); got != 9 {
		t.Fatalf("tenant 3 shootdown = %d cycles, want 9", got)
	}
	if a.SpanDepth() != 0 {
		t.Fatalf("scope 0 left %d open spans", a.SpanDepth())
	}

	// Park: the fleet window flushes, then the parked stretch records nothing.
	clock = 100
	if got := a.Switch(NoTenant, "", 0); got != 20 {
		t.Fatalf("park flushed %d cycles, want 20", got)
	}
	clock = 500
	a.AddShootdown(99)
	if got := a.Switch(2, PhaseHandshake, 0); got != 0 {
		t.Fatalf("parked window flushed %d cycles", got)
	}
	if got := phase("-1", PhaseFleet); got != 20 {
		t.Fatalf("fleet = %d cycles, want 20", got)
	}
	if got := sd("-1"); got != 0 {
		t.Fatalf("shootdown-free fleet window recorded %d shootdown cycles", got)
	}
	var total uint64
	for _, s := range met.Series(FamilyTenantPhaseCycles) {
		total += s.Value
	}
	if total != 50 {
		t.Fatalf("attributed %d cycles in total, want 50 (parked stretches excluded)", total)
	}
}

// TestAttrSeriesFollowTenant: the context hands out the series set of the
// tenant it names, bound by Switch or by a plain Tenant write; a series
// that is never written leaves nothing in the registry, and a set evicted
// from the context's cache resolves to the same series when rebuilt.
func TestAttrSeriesFollowTenant(t *testing.T) {
	met := New()
	a := NewAttr(met, func() uint64 { return 0 })
	a.Switch(3, PhaseCompute, 0)
	three := a.Series()
	if a.Series() != three {
		t.Fatal("one bound tenant handed out two series sets")
	}
	if snap := met.Snapshot(); len(snap) != 0 {
		t.Fatalf("binding a tenant wrote %v", snap)
	}
	a.Tenant = 5
	a.Series().AddDispatch(40)
	a.Series().AddEMCCycles(EMCRing, 7)
	a.Series().CountFrame(ChanRecv)
	if got := met.Value(FamilyTenantDispatchCycles, KV("tenant", "5")); got != 40 {
		t.Fatalf("tenant 5 dispatch = %d, want 40", got)
	}
	if got := met.Value(FamilyTenantEMCCycles, KV("kind", "ring"), KV("tenant", "5")); got != 7 {
		t.Fatalf("tenant 5 ring EMC cycles = %d, want 7", got)
	}
	if got := met.Value(FamilyChannelFrames, KV("dir", "recv"), KV("tenant", "5")); got != 1 {
		t.Fatalf("tenant 5 recv frames = %d, want 1", got)
	}
	if n := len(met.Snapshot()); n != 3 {
		t.Fatalf("%d families written, want the 3 written", n)
	}
	a.Tenant = 3
	if a.Series() != three {
		t.Fatal("rebinding tenant 3 made a second series set")
	}
	// A tenant that shares tenant 3's cache slot takes it over; tenant 3
	// comes back with a new set whose series resolve to the same ones.
	a.Tenant = 3 + tenantCache
	a.Series().AddDispatch(1)
	a.Tenant = 3
	a.Series().AddDispatch(2)
	a.Series().AddDispatch(3)
	if got := met.Value(FamilyTenantDispatchCycles, KV("tenant", "3")); got != 5 {
		t.Fatalf("tenant 3 dispatch = %d, want 5", got)
	}
	var nilSet *TenantSeries
	nilSet.AddDispatch(1)
	nilSet.CountFrame(ChanSend)
}

// TestAttrFrames: frames form a calling-context tree. A push moves to a
// child made on first use, so the same stack always lands on the same
// node; pops unwind in LIFO order, a pop on an empty stack (a frame opened
// before a profiler attached) is a no-op, and the walk renders every
// node's stack as a folded suffix, siblings in name order.
func TestAttrFrames(t *testing.T) {
	a := NewAttr(nil, nil)
	root := a.Frame()
	a.PopFrame()
	if a.Frame() != root || a.FrameDepth() != 0 {
		t.Fatalf("pop on an empty stack moved to depth %d", a.FrameDepth())
	}
	a.PushFrame("kernel/dispatch")
	a.PushFrame("cpu/deliver/syscall")
	leaf := a.Frame()
	if a.FrameDepth() != 2 {
		t.Fatalf("depth %d after two pushes", a.FrameDepth())
	}
	if a.LeafFrame("cpu/tlb-hit").ID() != a.LeafFrame("cpu/tlb-hit").ID() {
		t.Fatal("one leaf frame made two nodes")
	}
	a.PopFrame()
	a.PopFrame()
	a.PopFrame()
	if a.Frame() != root || a.FrameDepth() != 0 {
		t.Fatalf("depth %d after unwinding", a.FrameDepth())
	}
	a.PushFrame("kernel/dispatch")
	a.PushFrame("cpu/deliver/syscall")
	if a.Frame() != leaf {
		t.Fatal("the same stack landed on a second node")
	}
	a.PopFrame()
	a.PushFrame("cpu/deliver/exception")
	a.PopFrame()
	a.PopFrame()

	var stacks []string
	a.WalkFrames(func(stack string, f *FrameNode) { stacks = append(stacks, stack) })
	want := []string{
		"",
		";kernel/dispatch",
		";kernel/dispatch;cpu/deliver/exception",
		";kernel/dispatch;cpu/deliver/syscall",
		";kernel/dispatch;cpu/deliver/syscall;cpu/tlb-hit",
	}
	if !slices.Equal(stacks, want) {
		t.Fatalf("walk = %q, want %q", stacks, want)
	}
}
