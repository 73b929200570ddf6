package metrics

import (
	"strings"
	"sync"
	"testing"
)

// A handle writes the series its name and labels would, whatever order it
// was given the labels in, and a nil handle records nothing.
func TestHandleWritesTheNamedSeries(t *testing.T) {
	r := New()
	c := r.Handle("c", KV("b", "2"), KV("a", "1"))
	g := r.Handle("g", KV("res", "x"))
	h := r.Handle("h", KV("phase", "compute"))
	c.Inc()
	c.Add(4)
	r.Add("c", 2, KV("a", "1"), KV("b", "2"))
	g.SetMax(7)
	g.SetMax(3)
	g.SetMax(9)
	h.Observe(100)
	h.Observe(300)
	if v := r.Value("c", KV("a", "1"), KV("b", "2")); v != 7 {
		t.Fatalf("c = %d, want 7", v)
	}
	if n := len(r.Series("c")); n != 1 {
		t.Fatalf("handle and name writes split c into %d series", n)
	}
	if v := r.Value("g", KV("res", "x")); v != 9 {
		t.Fatalf("g = %d, want 9", v)
	}
	hist := r.Hist("h", KV("phase", "compute"))
	if hist.Count != 2 || hist.Sum != 400 {
		t.Fatalf("h = %+v", hist)
	}

	var nilHandle *Handle
	nilHandle.Inc()
	nilHandle.SetMax(1)
	nilHandle.Observe(1)
	var nilReg *Registry
	if nilReg.Handle("c") != nil {
		t.Fatal("a nil registry handed out a live handle")
	}
}

// A handle that was resolved but never written exports nothing, and a
// zero-delta Add does not create its series: a series appears in exports
// only once it has been written.
func TestResolvedUnwrittenHandleExportsNothing(t *testing.T) {
	r := New()
	r.Describe("ghost", "described, handed out, never written")
	idle := r.Handle("ghost", KV("kind", "nop"))
	zero := r.Handle("zero", KV("kind", "nop"))
	zero.Add(0)
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "# EOF\n" {
		t.Fatalf("unwritten handles exported series:\n%s", sb.String())
	}
	if r.Series("ghost") != nil || r.Series("zero") != nil {
		t.Fatal("unwritten handles made series")
	}
	// The first write still fixes the family's kind.
	idle.SetMax(5)
	if !strings.Contains(exportString(t, r), "# TYPE ghost gauge\n# HELP ghost described, handed out, never written\nghost{kind=\"nop\"} 5\n") {
		t.Fatalf("first write through a handle did not create a gauge:\n%s", exportString(t, r))
	}
}

// A write of another kind than the family's panics through a handle just
// as it does through a name.
func TestHandleKindMismatchPanics(t *testing.T) {
	r := New()
	h := r.Handle("m")
	h.Inc()
	defer func() {
		if recover() == nil {
			t.Fatal("writing a counter handle as a gauge did not panic")
		}
	}()
	h.SetMax(1)
}

// A write through a handle allocates nothing once its series exists.
func TestHandleWriteAllocatesNothing(t *testing.T) {
	r := New()
	c := r.Handle("c", KV("a", "1"), KV("b", "2"))
	g := r.Handle("g", KV("a", "1"))
	h := r.Handle("h", KV("a", "1"))
	c.Inc()
	g.SetMax(1)
	h.Observe(1)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.SetMax(5)
		h.Observe(7)
	})
	if allocs != 0 {
		t.Fatalf("write through a handle: %v allocs, want 0", allocs)
	}
	if v := r.Value("c", KV("b", "2"), KV("a", "1")); v != 1+101*3 {
		t.Fatalf("c = %d, want %d", v, 1+101*3)
	}
}

// Writers on several goroutines share handles, including their first
// write, and readers see every write.
func TestConcurrentHandleWrites(t *testing.T) {
	r := New()
	c := r.Handle("c", KV("a", "1"))
	h := r.Handle("h", KV("w", "x"))
	const writers, n = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				c.Inc()
				h.Observe(uint64(i))
				_ = r.Value("c", KV("a", "1"))
			}
		}()
	}
	wg.Wait()
	if v := r.Value("c", KV("a", "1")); v != writers*n {
		t.Fatalf("c = %d, want %d", v, writers*n)
	}
	if hist := r.Hist("h", KV("w", "x")); hist.Count != writers*n {
		t.Fatalf("h count = %d, want %d", hist.Count, writers*n)
	}
}

func exportString(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// BenchmarkHandleInc increments one existing labelled series through a
// handle (BenchmarkRegistryInc's series, without the key and lookups).
func BenchmarkHandleInc(b *testing.B) {
	r := New()
	h := r.Handle("c", KV("tenant", "3"), KV("outcome", "ok"))
	h.Inc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}
