package metrics_test

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// TestRegistryAsCountStore: the registry is the flight recorder's count
// store. Every event a recorder built on it appends lands in one
// erebor_trace_events series per kind and label, and the recorder's Counts
// reads that family back in "kind|label" form, whoever wrote to it. A
// recorder given no registry keeps its tallies in a private one.
func TestRegistryAsCountStore(t *testing.T) {
	r := metrics.New()
	var clk uint64
	now := func() uint64 { return clk }
	rec := trace.New(0, now, r, nil)
	for i := 0; i < 3; i++ {
		span := rec.NewSpanUnder(0)
		clk += 100
		rec.EndSpanAt(span, trace.KindEMC, trace.TrackMonitor, "emc/mmu", 0)
	}
	rec.Emit(trace.KindFrameSend, trace.TrackClient, "")
	rec.Emit(trace.KindFrameSend, trace.TrackClient, "")

	if v := r.Value(metrics.TraceEventsFamily, metrics.KV("kind", "emc"), metrics.KV("label", "emc/mmu")); v != 3 {
		t.Fatalf("registry holds %d emc/mmu events, want 3", v)
	}
	if v := r.Value(metrics.TraceEventsFamily, metrics.KV("kind", "frame-send"), metrics.KV("label", "")); v != 2 {
		t.Fatalf("registry holds %d unlabeled frame-send events, want 2", v)
	}
	r.Add(metrics.TraceEventsFamily, 4, metrics.KV("kind", "emc"), metrics.KV("label", "emc/mmu"))
	if m := rec.Counts(); len(m) != 2 || m["emc|emc/mmu"] != 7 || m["frame-send"] != 2 {
		t.Fatalf("Counts = %v, want emc|emc/mmu=7 frame-send=2", m)
	}

	private := trace.New(0, now, nil, nil)
	private.Emit(trace.KindFrameSend, trace.TrackClient, "")
	if m := private.Counts(); len(m) != 1 || m["frame-send"] != 1 {
		t.Fatalf("private-registry Counts = %v, want frame-send=1", m)
	}
	if v := r.Value(metrics.TraceEventsFamily, metrics.KV("kind", "frame-send"), metrics.KV("label", "")); v != 2 {
		t.Fatalf("a private-registry recorder wrote to the shared registry: frame-send = %d", v)
	}
}
