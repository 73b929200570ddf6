package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// fakeClock is a hand-advanced virtual clock for unit tests.
type fakeClock struct{ t uint64 }

func (c *fakeClock) now() uint64  { return c.t }
func (c *fakeClock) tick(n int64) { c.t += uint64(n) }

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Now() != 0 {
		t.Fatal("nil recorder Now != 0")
	}
	r.Emit(KindEMC, TrackMonitor, "emc/nop")
	r.Span(KindSyscall, TrackKernel, "syscall/1", 0)
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder has state")
	}
	if r.Snapshot() != nil || r.Histograms() != nil || r.Counts() != nil {
		t.Fatal("nil recorder returned non-nil aggregates")
	}
	if got := r.Summaries(); len(got) != 0 {
		t.Fatalf("nil recorder Summaries = %v", got)
	}
	var buf bytes.Buffer
	if err := r.ExportPrometheus(&buf); err != nil {
		t.Fatalf("nil ExportPrometheus: %v", err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil prometheus export = %q", buf.String())
	}
}

func TestRingWraparoundKeepsNewest(t *testing.T) {
	clk := &fakeClock{}
	r := New(4, clk.now, nil, nil)
	for i := 0; i < 10; i++ {
		clk.tick(100)
		r.Emit(KindFrameSend, TrackClient, "")
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	snap := r.Snapshot()
	// The 4 newest events were stamped at t = 700, 800, 900, 1000.
	want := []uint64{700, 800, 900, 1000}
	for i, ev := range snap {
		if ev.TS != want[i] {
			t.Fatalf("snapshot[%d].TS = %d, want %d (newest kept, oldest-first)", i, ev.TS, want[i])
		}
	}
	// Counters are aggregates: all 10 events tallied despite the wrap.
	if got := r.Counts()["frame-send"]; got != 10 {
		t.Fatalf("Counts[frame-send] = %d, want 10", got)
	}
}

func TestSpanFeedsHistogram(t *testing.T) {
	clk := &fakeClock{}
	r := New(16, clk.now, nil, nil)
	start := clk.now()
	clk.tick(1224)
	r.Span(KindEMC, TrackMonitor, "emc/nop", start)
	start = clk.now()
	clk.tick(1224)
	r.Span(KindEMC, TrackMonitor, "emc/nop", start)

	h, ok := r.Histograms()["emc/nop"]
	if !ok {
		t.Fatal("no emc/nop histogram")
	}
	if h.Count != 2 || h.Sum != 2448 || h.Min != 1224 || h.Max != 1224 {
		t.Fatalf("histogram = %+v", h)
	}
	if got := h.Buckets[bucketOf(1224)]; got != 2 {
		t.Fatalf("bucket[%d] = %d, want 2", bucketOf(1224), got)
	}
	if got := h.Mean(); got != 1224 {
		t.Fatalf("Mean = %v", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Dur != 1224 || snap[0].TS != 0 || snap[1].TS != 1224 {
		t.Fatalf("span events = %+v", snap)
	}
}

// metrics.Histogram is the recorder's span histogram; the tests below pin
// its bucket, quantile and exemplar rules beside the exporters that print
// them.

// bucketOf is the bucket a metrics.Histogram files duration d under.
func bucketOf(d uint64) int {
	var h metrics.Histogram
	h.Observe(d)
	for i, n := range h.Buckets {
		if n != 0 {
			return i
		}
	}
	return -1
}

func TestBucketEdges(t *testing.T) {
	cases := []struct {
		d    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 38, metrics.NumBuckets - 1}, {math.MaxUint64, metrics.NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	if metrics.BucketUpper(0) != 0 {
		t.Error("BucketUpper(0) != 0")
	}
	if metrics.BucketUpper(1) != 1 || metrics.BucketUpper(2) != 3 || metrics.BucketUpper(11) != 2047 {
		t.Error("BucketUpper inner edges wrong")
	}
	if metrics.BucketUpper(metrics.NumBuckets-1) != math.MaxUint64 {
		t.Error("overflow bucket upper bound")
	}
	// bucketOf/BucketUpper agree: every d is <= the upper bound of its bucket.
	for _, d := range []uint64{0, 1, 5, 560, 1224, 99999, 1 << 30} {
		if up := metrics.BucketUpper(bucketOf(d)); d > up {
			t.Errorf("d=%d above its bucket upper %d", d, up)
		}
	}
}

func TestQuantile(t *testing.T) {
	var h metrics.Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// 99 fast observations, 1 slow: p50 bounded by the fast bucket,
	// p100 clamps to Max.
	for i := 0; i < 99; i++ {
		h.Observe(100)
	}
	h.Observe(100000)
	p50 := h.Quantile(0.50)
	if p50 < 100 || p50 > metrics.BucketUpper(bucketOf(100)) {
		t.Fatalf("p50 = %d", p50)
	}
	if got := h.Quantile(1.0); got != 100000 {
		t.Fatalf("p100 = %d, want clamp to Max", got)
	}
	if got := h.Quantile(0.99); got > 100000 {
		t.Fatalf("p99 = %d exceeds Max", got)
	}
}

func fill(r *Recorder, clk *fakeClock) {
	for i := 0; i < 5; i++ {
		start := clk.now()
		clk.tick(1224)
		r.Span(KindEMC, TrackMonitor, "emc/nop", start)
		clk.tick(10)
		r.Emit(KindFrameSend, TrackClient, "")
		clk.tick(10)
		r.Emit(KindFaultInject, TrackClient, "drop")
		start = clk.now()
		clk.tick(700)
		r.Span(KindSandboxExit, SandboxTrack(1), "sandbox/1/exit", start)
	}
	r.Emit(KindSandboxKill, TrackMonitor, "policy: rate limit")
}

func TestChromeExportValidAndDeterministic(t *testing.T) {
	run := func() string {
		clk := &fakeClock{}
		r := New(0, clk.now, nil, nil)
		fill(r, clk)
		var buf bytes.Buffer
		if err := r.ExportChromeTrace(&buf); err != nil {
			t.Fatalf("export: %v", err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("two identical runs produced different Chrome exports")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(a), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.OtherData["dropped_events"] != "0" {
		t.Fatalf("dropped_events = %q", doc.OtherData["dropped_events"])
	}
	var names, spans, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				names++
			}
		case "X":
			spans++
			if ev.Dur <= 0 {
				t.Fatalf("span with non-positive dur: %+v", ev)
			}
		case "i":
			instants++
		}
	}
	// Tracks: monitor, client, sandbox-1 → 3 thread_name records.
	if names != 3 {
		t.Fatalf("thread_name metadata = %d, want 3", names)
	}
	if spans != 10 || instants != 11 {
		t.Fatalf("spans=%d instants=%d, want 10/11", spans, instants)
	}
	if !strings.Contains(a, `"name":"sandbox-1"`) {
		t.Fatal("missing sandbox track name")
	}
}

func TestPrometheusExport(t *testing.T) {
	clk := &fakeClock{}
	r := New(0, clk.now, nil, nil)
	fill(r, clk)
	var buf bytes.Buffer
	if err := r.ExportPrometheus(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`erebor_trace_events_total{kind="emc",label="emc/nop"} 5`,
		`erebor_trace_events_total{kind="fault-inject",label="drop"} 5`,
		`erebor_trace_events_total{kind="sandbox-kill",label="policy: rate limit"} 1`,
		"erebor_trace_dropped_events_total 0",
		`erebor_span_cycles_sum{span="emc/nop"} 6120`,
		`erebor_span_cycles_count{span="emc/nop"} 5`,
		`erebor_span_cycles_bucket{span="emc/nop",le="+Inf"} 5`,
		`erebor_span_cycles_sum{span="sandbox/1/exit"} 3500`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q\n%s", want, out)
		}
	}
}

func TestSummaries(t *testing.T) {
	clk := &fakeClock{}
	r := New(0, clk.now, nil, nil)
	fill(r, clk)
	s := r.Summaries()
	if len(s) != 2 {
		t.Fatalf("summaries = %d, want 2 (emc/nop, sandbox/1/exit)", len(s))
	}
	if s[0].Span != "emc/nop" || s[1].Span != "sandbox/1/exit" {
		t.Fatalf("summary order: %q, %q", s[0].Span, s[1].Span)
	}
	if s[0].Count != 5 || s[0].SumCycles != 6120 || s[0].MaxCycles != 1224 {
		t.Fatalf("emc summary = %+v", s[0])
	}
	// 1224 cycles at 2.1 GHz ≈ 0.5829 µs; p50 upper bound is bucket edge
	// clamped to Max = 1224.
	if s[0].P50Cycles != 1224 {
		t.Fatalf("p50 = %d, want clamp to 1224", s[0].P50Cycles)
	}
	if math.Abs(s[0].P50Micros-1224.0/2100.0) > 1e-9 {
		t.Fatalf("p50 µs = %v", s[0].P50Micros)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every q, including the clamped extremes, is 0.
	var empty metrics.Histogram
	for _, q := range []float64{-1, 0, 0.5, 1.0, 2.0} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %d, want 0", q, got)
		}
	}
	if empty.Mean() != 0 {
		t.Errorf("empty.Mean() = %v, want 0", empty.Mean())
	}

	// q=1.0 must return exactly the max observation, not its log2 bucket
	// edge: 1224 sits in bucket [1024,2048) whose upper bound is 2047.
	var h metrics.Histogram
	h.Observe(100)
	h.Observe(1224)
	if got := h.Quantile(1.0); got != 1224 {
		t.Errorf("Quantile(1.0) = %d, want 1224", got)
	}
	if got := h.Quantile(2.0); got != 1224 {
		t.Errorf("Quantile(2.0) = %d, want clamp to Max", got)
	}
	if got := h.Quantile(-0.5); got != 100 {
		t.Errorf("Quantile(-0.5) = %d, want Min", got)
	}

	// Single observation: every in-range q lands on it (bucket upper bound
	// clamped to Max).
	var one metrics.Histogram
	one.Observe(7)
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := one.Quantile(q); got != 7 {
			t.Errorf("one.Quantile(%v) = %d, want 7", q, got)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	clk := &fakeClock{}
	r := New(0, clk.now, nil, nil)
	r.Emit(KindSandboxKill, TrackMonitor, "quote\"back\\slash\nnewline")
	var buf bytes.Buffer
	if err := r.ExportPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `erebor_trace_events_total{kind="sandbox-kill",label="quote\"back\\slash\nnewline"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing:\n%s\nwant %q", buf.String(), want)
	}
	// The escaped export must stay on one line per sample (raw newline
	// would split it).
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "newline") && !strings.Contains(line, `\n`) {
			t.Fatalf("raw newline leaked into export line %q", line)
		}
	}
}

func TestExportStableAcrossIdenticalRuns(t *testing.T) {
	// Two independently-driven but identical recorders export identical
	// bytes: the map traversals inside both exporters are sorted.
	mk := func() *Recorder {
		clk := &fakeClock{}
		r := New(0, clk.now, nil, nil)
		fill(r, clk)
		return r
	}
	a, b := mk(), mk()
	var pa, pb, ca, cb bytes.Buffer
	if err := a.ExportPrometheus(&pa); err != nil {
		t.Fatal(err)
	}
	if err := b.ExportPrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if pa.String() != pb.String() {
		t.Fatal("prometheus export differs across identical runs")
	}
	if err := a.ExportChromeTrace(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.ExportChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if ca.String() != cb.String() {
		t.Fatal("chrome export differs across identical runs")
	}
}

// TestCountStoreBackedCounts: a recorder whose tallies live in a shared
// registry and a standalone one (private registry) driven identically agree
// on Counts and on the Prometheus export bytes. The registry side of the
// store is checked by metrics.TestRegistryAsCountStore.
func TestCountStoreBackedCounts(t *testing.T) {
	clkA, clkB := &fakeClock{}, &fakeClock{}
	plain := New(0, clkA.now, nil, nil)
	shared := New(0, clkB.now, metrics.New(), nil)
	fill(plain, clkA)
	fill(shared, clkB)

	ca, cb := plain.Counts(), shared.Counts()
	if cb["emc|emc/nop"] != 5 || cb["frame-send"] != 5 {
		t.Fatalf("Counts = %v", cb)
	}
	if len(ca) != len(cb) {
		t.Fatalf("count keys differ: %d vs %d", len(ca), len(cb))
	}
	for k, v := range ca {
		if cb[k] != v {
			t.Fatalf("count %q = %d on the shared registry, %d standalone", k, cb[k], v)
		}
	}
	var pa, pb bytes.Buffer
	if err := plain.ExportPrometheus(&pa); err != nil {
		t.Fatal(err)
	}
	if err := shared.ExportPrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if pa.String() != pb.String() {
		t.Fatalf("shared-registry export differs:\n--- standalone ---\n%s--- shared ---\n%s", pa.String(), pb.String())
	}
}
