package trace

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// testClock is a hand-cranked virtual clock for span tests.
type testClock struct{ now uint64 }

func (c *testClock) read() uint64 { return c.now }

// TestSpanParenting: nested Begin/EndSpan produces child-before-parent
// events with correct span/parent identity and durations.
func TestSpanParenting(t *testing.T) {
	clk := &testClock{}
	attr := metrics.NewAttr(nil, clk.read)
	r := New(64, clk.read, nil, attr)

	outer := r.Begin()
	clk.now += 100
	inner := r.Begin()
	clk.now += 40
	r.EndSpan(inner, KindEMC, TrackMonitor, "emc/test")
	clk.now += 10
	r.EndSpan(outer, KindSyscall, TrackKernel, "syscall/7")

	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Events append at completion: the inner span lands first.
	in, out := evs[0], evs[1]
	if in.Span != inner.ID || out.Span != outer.ID {
		t.Fatalf("span IDs: inner=%d outer=%d, events carry %d/%d",
			inner.ID, outer.ID, in.Span, out.Span)
	}
	if in.Parent != outer.ID {
		t.Errorf("inner parent = %d, want outer ID %d", in.Parent, outer.ID)
	}
	if out.Parent != 0 {
		t.Errorf("outer parent = %d, want 0 (root)", out.Parent)
	}
	if in.Dur != 40 || out.Dur != 150 {
		t.Errorf("durations inner=%d outer=%d, want 40/150", in.Dur, out.Dur)
	}
	if outer.ID != 1 || inner.ID != 2 {
		t.Errorf("IDs allocated %d/%d, want 1/2 (monotonic, 1-based)", outer.ID, inner.ID)
	}
	if attr.SpanDepth() != 0 {
		t.Errorf("scope depth %d after balanced Begin/End, want 0", attr.SpanDepth())
	}
}

// TestEmitParentsIntoScope: instants recorded inside an open scope carry
// the scope as Parent but no span identity of their own (Span 0), so the
// critical-path builder skips them while exports still show lineage.
func TestEmitParentsIntoScope(t *testing.T) {
	clk := &testClock{}
	r := New(64, clk.read, nil, nil)

	seg := r.Begin()
	r.Emit(KindFrameSend, TrackClient, "seq=1")
	r.EndSpan(seg, KindPhase, TrackServer, "compute")

	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	inst := evs[0]
	if inst.Span != 0 {
		t.Errorf("instant carries span ID %d, want 0", inst.Span)
	}
	if inst.Parent != seg.ID {
		t.Errorf("instant parent = %d, want enclosing scope %d", inst.Parent, seg.ID)
	}
}

// TestNewSpanUnderLeavesScopeAlone: explicit-parent spans do not push the
// ambient stack (the serve loop owns their extent), and the context's
// Switch replaces it wholesale.
func TestNewSpanUnderLeavesScopeAlone(t *testing.T) {
	clk := &testClock{}
	attr := metrics.NewAttr(nil, clk.read)
	r := New(64, clk.read, nil, attr)

	root := r.NewSpanUnder(0)
	if attr.SpanDepth() != 0 {
		t.Fatalf("NewSpanUnder pushed the scope stack (depth %d)", attr.SpanDepth())
	}
	attr.Switch(0, metrics.PhaseCompute, uint64(root.ID))
	if got := SpanID(attr.Span()); got != root.ID {
		t.Fatalf("scope = %d after Switch to %d", got, root.ID)
	}
	child := r.Begin()
	if child.Parent != root.ID {
		t.Errorf("Begin under the switched scope: parent %d, want %d", child.Parent, root.ID)
	}
	r.EndSpan(child, KindEMC, TrackMonitor, "emc/x")
	attr.Switch(metrics.NoTenant, "", 0)
	if attr.SpanDepth() != 0 {
		t.Errorf("parking Switch left depth %d", attr.SpanDepth())
	}
	r.EndSpan(root, KindServeSession, TrackServer, "serve/tenant/0")
	evs := r.Snapshot()
	if evs[1].Span != root.ID || evs[1].Parent != 0 {
		t.Errorf("root event span/parent = %d/%d, want %d/0",
			evs[1].Span, evs[1].Parent, root.ID)
	}
}

// TestNilRecorderSpanAPI: a nil recorder's entire span surface is inert —
// the disabled path allocates nothing and cannot panic.
func TestNilRecorderSpanAPI(t *testing.T) {
	var r *Recorder
	ref := r.Begin()
	if ref.ID != 0 {
		t.Fatalf("nil recorder handed out span ID %d", ref.ID)
	}
	r.EndSpan(ref, KindEMC, TrackMonitor, "x")
	if r.NewSpanUnder(3).ID != 0 {
		t.Error("nil recorder NewSpanUnder allocated")
	}
	if r.Seq() != 0 {
		t.Error("nil recorder Seq nonzero")
	}
}

// TestSeqMarkDetectsInnerEvents: SpanRef.Mark vs Seq answers "did anything
// record inside this window" — the empty-segment suppression predicate.
func TestSeqMarkDetectsInnerEvents(t *testing.T) {
	clk := &testClock{}
	r := New(64, clk.read, nil, nil)

	empty := r.NewSpanUnder(0)
	if r.Seq() != empty.Mark {
		t.Fatalf("fresh span: Seq %d != Mark %d", r.Seq(), empty.Mark)
	}
	busy := r.NewSpanUnder(0)
	r.Emit(KindFrameSend, TrackClient, "seq=1")
	if r.Seq() == busy.Mark {
		t.Fatal("Seq did not advance past Mark after an inner event")
	}
}

// TestPhaseSpansSkipHistogram: KindPhase segments carry causal structure
// only — they must not pollute the span-latency histograms.
func TestPhaseSpansSkipHistogram(t *testing.T) {
	clk := &testClock{}
	r := New(64, clk.read, nil, nil)

	seg := r.NewSpanUnder(0)
	clk.now += 500
	r.EndSpan(seg, KindPhase, TrackServer, "compute")
	sp := r.NewSpanUnder(0)
	clk.now += 70
	r.EndSpan(sp, KindEMC, TrackMonitor, "emc/x")

	h := r.Histograms()
	if _, ok := h["compute"]; ok {
		t.Error("phase segment fed a histogram")
	}
	if got := h["emc/x"].Count; got != 1 {
		t.Errorf("emc histogram count %d, want 1", got)
	}
}

// --- exemplar retention ---------------------------------------------------

// TestExemplarEmptyHistogram: no observations, no exemplar — at any q.
func TestExemplarEmptyHistogram(t *testing.T) {
	var h metrics.Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.ExemplarAt(q); got != 0 {
			t.Errorf("empty histogram ExemplarAt(%v) = %d, want 0", q, got)
		}
	}
	if h.CountAbove(0) != 0 {
		t.Error("empty histogram CountAbove nonzero")
	}
}

// TestExemplarSingleBucket: observations landing in one bucket follow
// last-write-wins, and a zero exemplar keeps the previous one.
func TestExemplarSingleBucket(t *testing.T) {
	var h metrics.Histogram
	// 100 and 120 share bucket [64,128).
	h.ObserveEx(100, 11)
	h.ObserveEx(120, 22)
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.ExemplarAt(q); got != 22 {
			t.Errorf("ExemplarAt(%v) = %d, want 22 (last write)", q, got)
		}
	}
	h.ObserveEx(110, 0) // 0 = untraced observation: keep the retained ID
	if got := h.ExemplarAt(0.99); got != 22 {
		t.Errorf("zero exemplar overwrote bucket: got %d, want 22", got)
	}
}

// TestExemplarTailReplacementDeterministic: for a fixed observation order
// the retained tail exemplar is fixed (last landing in the p99 bucket),
// and two identically-fed histograms agree bucket-for-bucket.
func TestExemplarTailReplacementDeterministic(t *testing.T) {
	feed := func(h *metrics.Histogram) {
		for i := uint64(1); i <= 98; i++ {
			h.ObserveEx(50+i%7, 1000+i) // bulk in low buckets
		}
		h.ObserveEx(1<<20, 777)   // first tail observation
		h.ObserveEx(1<<20+5, 888) // same tail bucket: replaces 777
	}
	var a, b metrics.Histogram
	feed(&a)
	feed(&b)
	if a.Exem != b.Exem {
		t.Fatal("identical feeds retained different exemplars")
	}
	if got := a.ExemplarAt(0.99); got != 888 {
		t.Errorf("p99 exemplar = %d, want 888 (last write in tail bucket)", got)
	}
	if got := a.ExemplarAt(0.5); got == 888 || got == 777 {
		t.Errorf("median exemplar %d resolved to the tail bucket", got)
	}
}

// TestCountAboveConsistentWithQuantile: the SLO engine's invariant — at
// t = Quantile(q), at most (1-q)·Count observations count as violations,
// so "p99 met" and "budget intact" can never disagree.
func TestCountAboveConsistentWithQuantile(t *testing.T) {
	var h metrics.Histogram
	vals := []uint64{3, 17, 90, 90, 250, 1024, 4096, 4100, 70000, 1 << 22}
	for i, v := range vals {
		h.ObserveEx(v, uint64(100+i))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		tgt := h.Quantile(q)
		viol := h.CountAbove(tgt)
		allowed := h.Count - uint64(float64(h.Count)*q+0.999999)
		if viol > allowed {
			t.Errorf("q=%v: CountAbove(Quantile)=%d exceeds (1-q)·Count=%d",
				q, viol, allowed)
		}
	}
	if got := h.CountAbove(h.Max); got != 0 {
		t.Errorf("CountAbove(Max) = %d, want 0 (upper bounds clamp to Max)", got)
	}
	if got := h.CountAbove(0); got != h.Count {
		t.Errorf("CountAbove(0) = %d, want all %d (no zero observations)", got, h.Count)
	}
}
