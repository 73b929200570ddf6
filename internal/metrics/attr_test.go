package metrics

import "testing"

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

// TestAttrFrames: frames render as a folded suffix, pop in LIFO order, and
// a pop on an empty stack (a frame opened before a profiler attached) is a
// no-op.
func TestAttrFrames(t *testing.T) {
	a := NewAttr(nil, nil)
	a.PopFrame()
	a.PushFrame("kernel/dispatch")
	a.PushFrame("cpu/deliver/syscall")
	if got := a.Frames(); got != ";kernel/dispatch;cpu/deliver/syscall" || a.FrameDepth() != 2 {
		t.Fatalf("frames %q depth %d", got, a.FrameDepth())
	}
	a.PopFrame()
	a.PopFrame()
	a.PopFrame()
	if a.Frames() != "" || a.FrameDepth() != 0 {
		t.Fatalf("frames %q depth %d after unwinding", a.Frames(), a.FrameDepth())
	}
}
