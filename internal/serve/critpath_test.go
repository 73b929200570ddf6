package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/critpath"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/slo"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// runTraced serves one traced fleet and returns its critical-path report
// plus the reconstructed forest and the server (for SLO access).
func runTraced(t *testing.T, cfg Config) (*Server, *critpath.Forest, *critpath.Report) {
	t.Helper()
	cfg.Trace = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rec := s.World().Rec
	forest, cerr := critpath.Build(rec.Snapshot(), rec.Dropped())
	if cerr != nil {
		var inc *critpath.IncompleteError
		if !errors.As(cerr, &inc) {
			t.Fatalf("unexpected build error type: %v", cerr)
		}
	}
	return s, forest, critpath.Analyze(forest)
}

// findPhase returns the aggregate row for one phase, nil when absent.
func findPhase(rep *critpath.Report, phase string) *critpath.PhaseRow {
	for i := range rep.Phases {
		if rep.Phases[i].Phase == phase {
			return &rep.Phases[i]
		}
	}
	return nil
}

// hasContributor reports whether any phase row names the contributor.
func hasContributor(rep *critpath.Report, name string) bool {
	for _, r := range rep.Phases {
		for _, c := range r.Contributors {
			if c.Name == name {
				return true
			}
		}
	}
	return false
}

// dominant is a phase row's top contributor ("" when it has none).
func dominant(r *critpath.PhaseRow) string {
	if r == nil || len(r.Contributors) == 0 {
		return ""
	}
	return r.Contributors[0].Name
}

// TestLatencyInjectionMovesDominantContributor is the acceptance check for
// the analyzer: a deliberately injected latency fault class must surface
// as a named critical-path contributor and take over a phase's dominant
// slot, where the clean run never names it at all.
func TestLatencyInjectionMovesDominantContributor(t *testing.T) {
	base := Config{Tenants: 4, Sessions: 8, Seed: 5, VCPUs: 2}

	_, _, clean := runTraced(t, base)
	if hasContributor(clean, "latency") {
		t.Fatal("clean run attributed cycles to latency injection")
	}

	lat := base
	plan := faultinject.Uniform(base.Seed, 0).WithLatency(0.5, 200_000)
	lat.Chaos = &plan
	_, _, chaos := runTraced(t, lat)
	if !hasContributor(chaos, "latency") {
		t.Fatal("latency injection left no critical-path contributor")
	}
	took := false
	for i := range chaos.Phases {
		r := &chaos.Phases[i]
		if dominant(r) == "latency" && dominant(findPhase(clean, r.Phase)) != "latency" {
			took = true
		}
	}
	if !took {
		t.Error("latency injection never became a phase's dominant contributor")
	}
}

// TestSLOExemplarResolvesToSessionTree closes the causal loop: a blown
// objective's p99 exemplar is a session root span ID that resolves through
// the forest to a concrete tree — one that contains the injected latency
// stall explaining the tail.
func TestSLOExemplarResolvesToSessionTree(t *testing.T) {
	plan := faultinject.Uniform(5, 0).WithLatency(0.5, 200_000)
	cfg := Config{
		Tenants: 4, Sessions: 8, Seed: 5, VCPUs: 2, Chaos: &plan,
		SLO: []slo.Objective{
			{Phase: "compute", Quantile: 0.99, Target: 100_000, Budget: 0.01},
		},
	}
	s, forest, _ := runTraced(t, cfg)

	results := s.SLO().Latest()
	if len(results) != 1 {
		t.Fatalf("got %d SLO results, want 1", len(results))
	}
	r := results[0]
	if r.Met {
		t.Fatalf("injected 200k-cycle stalls did not blow the 100k compute p99 (observed %d)", r.Observed)
	}
	if r.Exemplar == 0 {
		t.Fatal("blown objective carries no exemplar on a traced run")
	}
	sess := forest.SessionByRoot(trace.SpanID(r.Exemplar))
	if sess == nil {
		t.Fatalf("exemplar %d does not resolve to a session root", r.Exemplar)
	}
	var sawLatency func(n *critpath.Node) bool
	sawLatency = func(n *critpath.Node) bool {
		if n.Name() == "latency" {
			return true
		}
		for _, c := range n.Children {
			if sawLatency(c) {
				return true
			}
		}
		return false
	}
	if !sawLatency(sess.Root) {
		t.Errorf("exemplar session (tenant %d) contains no injected latency stall", sess.Tenant)
	}
}

// TestSpanAndSLOCycleNeutral extends PR 5's cycle-neutrality gate across
// PR 7's machinery: switching on span tracing, or tracing plus a full SLO
// objective set, changes no virtual cycle — the report (cycle figures
// included) stays byte-identical.
func TestSpanAndSLOCycleNeutral(t *testing.T) {
	run := func(mutate func(*Config)) []byte {
		cfg := Config{Tenants: 4, Sessions: 8, Seed: 13, VCPUs: 2}
		mutate(&cfg)
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.JSON()
	}
	base := run(func(*Config) {})
	traced := run(func(c *Config) { c.Trace = true })
	sloed := run(func(c *Config) {
		c.Trace = true
		c.SLO = slo.Default()
	})
	if !bytes.Equal(base, traced) {
		t.Error("span tracing changed the report bytes: tracing charged the clock")
	}
	if !bytes.Equal(base, sloed) {
		t.Error("SLO evaluation changed the report bytes: the engine charged the clock")
	}
}

// TestCritpathUnderDropPressure: a deliberately tiny ring forces eviction
// on a real fleet; the analysis must flag itself partial end to end (typed
// error, forest flag, report banner) rather than return a silent subset.
func TestCritpathUnderDropPressure(t *testing.T) {
	cfg := Config{Tenants: 4, Sessions: 8, Seed: 5, VCPUs: 2,
		Trace: true, TraceCapacity: 64}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep0, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec := s.World().Rec
	if rec.Dropped() == 0 {
		t.Fatal("64-event ring did not overflow — drop pressure not exercised")
	}
	forest, cerr := critpath.Build(rec.Snapshot(), rec.Dropped())
	var inc *critpath.IncompleteError
	if !errors.As(cerr, &inc) {
		t.Fatalf("want *IncompleteError under drop pressure, got %v", cerr)
	}
	if !forest.Partial {
		t.Error("forest not marked partial")
	}
	rep := critpath.Analyze(forest)
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "PARTIAL") {
		t.Error("report missing PARTIAL banner under drop pressure")
	}
	// The drop counter must also be visible on the live status surface.
	if st := s.Status(rep0); st.TraceDropped == 0 {
		t.Error("Status.TraceDropped is zero despite ring overflow")
	}
}

// TestStatusPhaseLatencyAndSLO: the status surface carries per-phase
// latency quantiles and the SLO table once configured.
func TestStatusPhaseLatencyAndSLO(t *testing.T) {
	cfg := Config{Tenants: 4, Sessions: 8, Seed: 7, Trace: true,
		SLO: slo.Default()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Status(rep)
	if len(st.PhaseLatency) == 0 {
		t.Fatal("status has no phase-latency rows after a traced run")
	}
	seen := map[string]bool{}
	for _, row := range st.PhaseLatency {
		seen[row.Phase] = true
		if row.Count == 0 {
			t.Errorf("phase %q row with zero count", row.Phase)
		}
		if row.P99 < row.P50 {
			t.Errorf("phase %q: p99 %d < p50 %d", row.Phase, row.P99, row.P50)
		}
	}
	for _, want := range []string{"ttfc", "handshake", "compute"} {
		if !seen[want] {
			t.Errorf("phase-latency table missing %q", want)
		}
	}
	if len(st.SLO) != len(slo.Default()) {
		t.Fatalf("status carries %d SLO results, want %d", len(st.SLO), len(slo.Default()))
	}
	var buf bytes.Buffer
	st.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"phase latency", "SLO objectives", "ttfc-p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("statusz text missing %q", want)
		}
	}
}
