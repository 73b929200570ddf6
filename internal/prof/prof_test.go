package prof

import (
	"bytes"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

func TestObserveAttributesToLiveStack(t *testing.T) {
	attr := metrics.NewAttr(nil, nil)
	p := New(attr)
	p.Start()
	attr.Tenant, attr.Phase = 3, "compute"
	p.Observe(10) // bare root
	attr.PushFrame("kernel/dispatch")
	p.Observe(5)
	p.ObserveFrame("cpu/tlb-hit", 1)
	p.Observe(4)
	attr.PopFrame()
	p.Stop()

	if d := attr.FrameDepth(); d != 0 {
		t.Fatalf("depth = %d after balanced pushes/pops", d)
	}
	want := map[string]uint64{
		"tenant:3;phase:compute":                             10,
		"tenant:3;phase:compute;kernel/dispatch":             9,
		"tenant:3;phase:compute;kernel/dispatch;cpu/tlb-hit": 1,
	}
	got := p.Stacks()
	if len(got) != len(want) {
		t.Fatalf("stacks = %v, want %v", got, want)
	}
	for s, n := range want {
		if got[s] != n {
			t.Fatalf("stack %q = %d, want %d", s, got[s], n)
		}
	}
	if total := p.Total(); total != 20 {
		t.Fatalf("total = %d, want 20", total)
	}
	if tot := p.Totals()[Key{Tenant: 3, Phase: "compute"}]; tot != 20 {
		t.Fatalf("bucket total = %d, want 20", tot)
	}
}

func TestObserveOutsideWindowAndPhase(t *testing.T) {
	attr := metrics.NewAttr(nil, nil)
	p := New(attr)
	attr.Phase = "compute"
	p.Observe(7) // before Start: ignored entirely
	p.Start()
	attr.Phase = ""
	p.Observe(3) // in window, no phase: dropped
	p.Stop()
	p.Observe(9) // after Stop: ignored
	if p.Total() != 0 {
		t.Fatalf("total = %d, want 0", p.Total())
	}
	if d := p.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.Start()
	p.Observe(5)
	p.ObserveFrame("f", 5)
	p.Stop()
	if p.Enabled() || p.Total() != 0 || p.Dropped() != 0 {
		t.Fatal("nil profiler not inert")
	}
	if bad := p.CheckConservation(metrics.New()); len(bad) != 0 {
		t.Fatalf("nil profiler fails conservation against an empty registry: %v", bad)
	}
	if s := p.Samples(); s != nil {
		t.Fatalf("nil Samples = %v", s)
	}
	if err := p.WriteFolded(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldedRoundTrip(t *testing.T) {
	attr := metrics.NewAttr(nil, nil)
	p := New(attr)
	p.Start()
	attr.Tenant, attr.Phase = 0, "compute"
	attr.PushFrame("kernel/dispatch")
	p.Observe(42)
	attr.PopFrame()
	attr.Tenant = 1
	p.Observe(7)
	p.Stop()

	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseFolded(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := p.Stacks()
	if len(parsed) != len(want) {
		t.Fatalf("parsed %d stacks, want %d", len(parsed), len(want))
	}
	for s, n := range want {
		if parsed[s] != n {
			t.Fatalf("parsed[%q] = %d, want %d", s, parsed[s], n)
		}
	}
}

func TestParseFoldedErrors(t *testing.T) {
	if _, err := ParseFolded(strings.NewReader("no-count-field\n")); err == nil {
		t.Fatal("no error for line without count")
	}
	if _, err := ParseFolded(strings.NewReader("stack notanumber\n")); err == nil {
		t.Fatal("no error for non-numeric count")
	}
	got, err := ParseFolded(strings.NewReader("a;b 3\n\na;b 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got["a;b"] != 7 {
		t.Fatalf("duplicate stacks did not accumulate: %v", got)
	}
}

func TestTopAndDiff(t *testing.T) {
	stacks := map[string]uint64{"a": 5, "b": 30, "c": 10}
	top := Top(stacks, 2)
	if len(top) != 2 || top[0].Stack != "b" || top[1].Stack != "c" {
		t.Fatalf("top = %v", top)
	}
	rows := Diff(map[string]uint64{"a": 10, "b": 5, "gone": 3},
		map[string]uint64{"a": 4, "b": 5, "new": 2})
	// Sorted by delta ascending: a (-6), gone (-3), new (+2); b dropped.
	if len(rows) != 3 || rows[0].Stack != "a" || rows[0].Delta != -6 ||
		rows[1].Stack != "gone" || rows[2].Stack != "new" || rows[2].Delta != 2 {
		t.Fatalf("diff = %+v", rows)
	}
}

func TestCheckConservation(t *testing.T) {
	attr := metrics.NewAttr(nil, nil)
	met := metrics.New()
	p := New(attr)
	p.Start()
	attr.Tenant, attr.Phase = 2, "compute"
	p.Observe(100)
	p.Stop()
	met.Add(metrics.FamilyTenantPhaseCycles, 100,
		metrics.KV("phase", "compute"), metrics.KV("tenant", "2"))
	if bad := p.CheckConservation(met); len(bad) != 0 {
		t.Fatalf("conservation failed on matched totals: %v", bad)
	}
	met.Add(metrics.FamilyTenantPhaseCycles, 1,
		metrics.KV("phase", "compute"), metrics.KV("tenant", "2"))
	if bad := p.CheckConservation(met); len(bad) == 0 {
		t.Fatal("conservation passed on mismatched totals")
	}
}

func TestExportsDeterministic(t *testing.T) {
	build := func() *Profiler {
		attr := metrics.NewAttr(nil, nil)
		p := New(attr)
		p.Start()
		for tenant := 0; tenant < 4; tenant++ {
			attr.Tenant, attr.Phase = tenant, "compute"
			attr.PushFrame("kernel/dispatch")
			p.Observe(uint64(10 * (tenant + 1)))
			p.ObserveFrame("cpu/page-walk", 3)
			attr.PopFrame()
		}
		p.Stop()
		return p
	}
	var f1, f2, p1, p2 bytes.Buffer
	a, b := build(), build()
	if err := a.WriteFolded(&f1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFolded(&f2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Bytes(), f2.Bytes()) {
		t.Fatal("folded export not byte-deterministic")
	}
	if err := a.WritePprof(&p1); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePprof(&p2); err != nil {
		t.Fatal(err)
	}
	if p1.Len() == 0 || !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Fatal("pprof export empty or not byte-deterministic")
	}
}
