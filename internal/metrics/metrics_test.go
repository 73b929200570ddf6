package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Inc("c")
	r.Add("c", 5, KV("k", "v"))
	r.Set("g", 7)
	r.Observe("h", 100)
	r.Describe("c", "help")
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	if v := r.Value("c"); v != 0 {
		t.Fatalf("nil Value = %d", v)
	}
	if h := r.Hist("h"); h.Count != 0 {
		t.Fatalf("nil Hist count = %d", h.Count)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil Snapshot = %v", s)
	}
	if s := r.Series("c"); s != nil {
		t.Fatalf("nil Series = %v", s)
	}
	if m := r.CounterMap("c", "k"); m != nil {
		t.Fatalf("nil CounterMap = %v", m)
	}
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "# EOF\n" {
		t.Fatalf("nil export = %q", sb.String())
	}
}

func TestCounterGaugeHistogramOps(t *testing.T) {
	r := New()
	r.Inc("emc", KV("kind", "mmu"))
	r.Add("emc", 4, KV("kind", "mmu"))
	r.Add("emc", 2, KV("kind", "io"))
	r.Add("emc", 0, KV("kind", "never")) // zero delta must not create a series
	r.Set("slots", 8)
	r.Set("slots", 3)
	r.Observe("lat", 100, KV("phase", "compute"))
	r.Observe("lat", 300, KV("phase", "compute"))

	if v := r.Value("emc", KV("kind", "mmu")); v != 5 {
		t.Fatalf("emc{kind=mmu} = %d, want 5", v)
	}
	if v := r.Value("emc", KV("kind", "io")); v != 2 {
		t.Fatalf("emc{kind=io} = %d, want 2", v)
	}
	if v := r.Value("emc", KV("kind", "never")); v != 0 {
		t.Fatalf("emc{kind=never} = %d, want 0", v)
	}
	if len(r.Series("emc")) != 2 {
		t.Fatalf("emc series = %d, want 2 (zero-delta Add must not materialize)", len(r.Series("emc")))
	}
	if v := r.Value("slots"); v != 3 {
		t.Fatalf("slots = %d, want 3 (gauge overwrite)", v)
	}
	h := r.Hist("lat", KV("phase", "compute"))
	if h.Count != 2 || h.Sum != 400 || h.Min != 100 || h.Max != 300 {
		t.Fatalf("hist = %+v", h)
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := New()
	r.Inc("x", KV("a", "1"), KV("b", "2"))
	r.Inc("x", KV("b", "2"), KV("a", "1"))
	if v := r.Value("x", KV("b", "2"), KV("a", "1")); v != 2 {
		t.Fatalf("label-permuted writes split series: %d", v)
	}
	if n := len(r.Series("x")); n != 1 {
		t.Fatalf("series count = %d, want 1", n)
	}
}

func TestSnapshotStableOrderAndIsolation(t *testing.T) {
	// Two registries written in different interleavings must snapshot and
	// export identically.
	fill := func(order []int) *Registry {
		r := New()
		ops := []func(){
			func() { r.Add("zeta", 1, KV("t", "9")) },
			func() { r.Add("alpha", 3, KV("t", "2"), KV("p", "x")) },
			func() { r.Add("alpha", 1, KV("t", "10"), KV("p", "x")) },
			func() { r.Set("gauge", 4) },
			func() { r.Observe("hist", 17, KV("t", "1")) },
		}
		for _, i := range order {
			ops[i]()
		}
		return r
	}
	a := fill([]int{0, 1, 2, 3, 4})
	b := fill([]int{4, 3, 2, 1, 0})
	var sa, sb strings.Builder
	if err := a.ExportOpenMetrics(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Fatalf("interleaving-dependent export:\n--- a ---\n%s--- b ---\n%s", sa.String(), sb.String())
	}

	// Snapshot must be a copy: mutating the registry after snapshot must not
	// alias.
	snap := a.Snapshot()
	a.Add("zeta", 100, KV("t", "9"))
	for _, fam := range snap {
		if fam.Name == "zeta" && fam.Series[0].Value != 1 {
			t.Fatalf("snapshot aliases live registry: %d", fam.Series[0].Value)
		}
	}
}

func TestExportOpenMetricsFormat(t *testing.T) {
	r := New()
	r.Describe("emc", "EMC gate entries.")
	r.Add("emc", 7, KV("kind", "mmu"))
	r.Set("pool", 3, KV("state", "warm"))
	r.Observe("lat", 5, KV("phase", "compute"))
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE emc counter\n",
		"# HELP emc EMC gate entries.\n",
		`emc_total{kind="mmu"} 7` + "\n",
		"# TYPE pool gauge\n",
		`pool{state="warm"} 3` + "\n",
		"# TYPE lat histogram\n",
		`lat_bucket{phase="compute",le="7"} 1` + "\n",
		`lat_bucket{phase="compute",le="+Inf"} 1` + "\n",
		`lat_sum{phase="compute"} 5` + "\n",
		`lat_count{phase="compute"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("export not terminated with # EOF:\n%s", out)
	}
}

func TestExportLabelEscaping(t *testing.T) {
	r := New()
	r.Inc("m", KV("l", `quote"back\slash`+"\nnewline"))
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := `m_total{l="quote\"back\\slash\nnewline"} 1` + "\n"
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaping wrong:\n%s\nwant line %q", sb.String(), want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Inc("m")
	defer func() {
		if recover() == nil {
			t.Fatal("writing a counter family as a gauge did not panic")
		}
	}()
	r.Set("m", 1)
}

func TestCounterMap(t *testing.T) {
	r := New()
	r.Add("emc", 5, KV("kind", "mmu"))
	r.Add("emc", 2, KV("kind", "io"))
	r.Set("other", 9)
	m := r.CounterMap("emc", "kind")
	if len(m) != 2 || m["mmu"] != 5 || m["io"] != 2 {
		t.Fatalf("CounterMap = %v", m)
	}
	if m := r.CounterMap("absent", "kind"); m != nil {
		t.Fatalf("absent CounterMap = %v", m)
	}
}

func TestDescribeAfterWrite(t *testing.T) {
	r := New()
	r.Set("g", 1)
	r.Describe("g", "a gauge")
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE g gauge\n# HELP g a gauge\n") {
		t.Fatalf("Describe after write lost kind or help:\n%s", sb.String())
	}
}

func TestDescribedButUnwrittenFamilyOmitted(t *testing.T) {
	r := New()
	r.Describe("ghost", "never written")
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "ghost") {
		t.Fatalf("described-only family exported:\n%s", sb.String())
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("described-only family in snapshot")
	}
}

// Describe before any write leaves the family's kind open: the first
// write fixes it, whatever its kind.
func TestDescribeBeforeFirstWrite(t *testing.T) {
	r := New()
	r.Describe("g", "a gauge")
	r.Describe("h", "a histogram")
	r.Describe("c", "a counter")
	r.Set("g", 4)
	r.Observe("h", 5)
	r.Inc("c")
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE g gauge\n# HELP g a gauge\ng 4\n",
		"# TYPE h histogram\n# HELP h a histogram\n",
		"# TYPE c counter\n# HELP c a counter\nc_total 1\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("export missing %q\n%s", want, sb.String())
		}
	}
	// Once written, the kind is fixed.
	defer func() {
		if recover() == nil {
			t.Fatal("writing a gauge family as a counter did not panic")
		}
	}()
	r.Inc("g")
}

// Writes to an existing series allocate nothing, whatever order the
// caller passes its labels in.
func TestWriteExistingSeriesAllocatesNothing(t *testing.T) {
	r := New()
	r.Inc("c", KV("a", "1"), KV("b", "2"))
	r.Set("g", 1, KV("a", "1"), KV("b", "2"))
	r.Observe("h", 1, KV("a", "1"), KV("b", "2"))
	allocs := testing.AllocsPerRun(100, func() {
		r.Inc("c", KV("a", "1"), KV("b", "2"))
		r.Add("c", 2, KV("b", "2"), KV("a", "1"))
		r.Set("g", 3, KV("b", "2"), KV("a", "1"))
		r.SetMax("g", 5, KV("a", "1"), KV("b", "2"))
		r.Observe("h", 7, KV("b", "2"), KV("a", "1"))
		r.ObserveEx("h", 9, 42, KV("a", "1"), KV("b", "2"))
	})
	if allocs != 0 {
		t.Fatalf("write to an existing series: %v allocs, want 0", allocs)
	}
	if n := len(r.Series("c")) + len(r.Series("g")) + len(r.Series("h")); n != 3 {
		t.Fatalf("label order split series: %d series, want 3", n)
	}
	if v := r.Value("c", KV("b", "2"), KV("a", "1")); v != 1+101*3 {
		t.Fatalf("c = %d, want %d", v, 1+101*3)
	}
}

// Writers and readers on several goroutines share the registry's key
// scratch under its lock.
func TestConcurrentWritesAndReads(t *testing.T) {
	r := New()
	const writers, n = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if g%2 == 0 {
					r.Inc("c", KV("a", "1"), KV("b", "2"))
				} else {
					r.Inc("c", KV("b", "2"), KV("a", "1"))
				}
				r.Observe("h", uint64(i), KV("w", "x"))
				_ = r.Value("c", KV("a", "1"), KV("b", "2"))
			}
		}(g)
	}
	wg.Wait()
	if v := r.Value("c", KV("b", "2"), KV("a", "1")); v != writers*n {
		t.Fatalf("c = %d, want %d", v, writers*n)
	}
	if h := r.Hist("h", KV("w", "x")); h.Count != writers*n {
		t.Fatalf("h count = %d, want %d", h.Count, writers*n)
	}
}

// BenchmarkRegistryInc increments one existing labelled series.
func BenchmarkRegistryInc(b *testing.B) {
	r := New()
	r.Inc("c", KV("tenant", "3"), KV("outcome", "ok"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Inc("c", KV("tenant", "3"), KV("outcome", "ok"))
	}
}
