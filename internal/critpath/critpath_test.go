package critpath

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/trace"
)

// ev builds one span-carrying event (tests feed Build directly; in
// production the recorder appends these at span completion).
func ev(span, parent trace.SpanID, kind trace.Kind, track int32, label string, ts, dur uint64) trace.Event {
	return trace.Event{TS: ts, Dur: dur, Kind: kind, Track: track, Label: label,
		Span: span, Parent: parent}
}

// sessionEvents is a minimal complete session in completion order: an EMC
// under a compute segment under a tenant-3 root.
func sessionEvents() []trace.Event {
	return []trace.Event{
		ev(3, 2, trace.KindEMC, trace.TrackMonitor, "emc/io", 120, 70),
		ev(2, 1, trace.KindPhase, trace.TrackServer, "compute", 100, 400),
		ev(1, 0, trace.KindServeSession, trace.TrackServer, "serve/tenant/3", 0, 900),
	}
}

// TestBuildLinksForest: completion-ordered events (children first) fold
// into the right tree, tenant parses from the root label, and the root
// resolves via SessionByRoot.
func TestBuildLinksForest(t *testing.T) {
	f, err := Build(sessionEvents(), 0)
	if err != nil {
		t.Fatalf("clean build returned error: %v", err)
	}
	if f.Partial {
		t.Fatal("clean build marked partial")
	}
	if len(f.Sessions) != 1 {
		t.Fatalf("got %d sessions, want 1", len(f.Sessions))
	}
	s := f.Sessions[0]
	if s.Tenant != 3 {
		t.Errorf("tenant = %d, want 3", s.Tenant)
	}
	if len(s.Root.Children) != 1 || s.Root.Children[0].Event.Label != "compute" {
		t.Fatal("phase segment not linked under session root")
	}
	seg := s.Root.Children[0]
	if len(seg.Children) != 1 || seg.Children[0].Name() != "emc/io" {
		t.Fatal("EMC span not linked under phase segment")
	}
	if got := f.SessionByRoot(1); got != s {
		t.Error("SessionByRoot(1) did not resolve the session")
	}
	if f.SessionByRoot(99) != nil {
		t.Error("SessionByRoot(99) resolved a phantom session")
	}
}

// TestInstantsAreSkipped: Span-0 events (instants) never become nodes —
// they carry lineage for exports, not durations for the critical path.
func TestInstantsAreSkipped(t *testing.T) {
	events := append(sessionEvents(),
		trace.Event{Kind: trace.KindFrameSend, Track: trace.TrackClient, Parent: 2})
	f, err := Build(events, 0)
	if err != nil {
		t.Fatalf("instants made the build partial: %v", err)
	}
	if len(f.Nodes) != 3 {
		t.Errorf("indexed %d nodes, want 3 (instant excluded)", len(f.Nodes))
	}
}

// TestBuildDropPressureTyped: eviction severs ancestry — Build still
// returns the partial forest but flags it through the typed error, and
// every rendering carries the PARTIAL banner. Never a silent wrong answer.
func TestBuildDropPressureTyped(t *testing.T) {
	// Evict the phase segment (span 2): the EMC below it orphans.
	events := []trace.Event{
		ev(3, 2, trace.KindEMC, trace.TrackMonitor, "emc/io", 120, 70),
		ev(1, 0, trace.KindServeSession, trace.TrackServer, "serve/tenant/3", 0, 900),
	}
	f, err := Build(events, 5)
	var inc *IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("want *IncompleteError, got %v", err)
	}
	if inc.Dropped != 5 || inc.Orphans != 1 {
		t.Errorf("IncompleteError{%d, %d}, want {5, 1}", inc.Dropped, inc.Orphans)
	}
	if !f.Partial || len(f.Sessions) != 1 {
		t.Fatal("partial forest not returned alongside the error")
	}
	rep := Analyze(f)
	if !rep.Partial {
		t.Fatal("analysis dropped the partial flag")
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "PARTIAL") {
		t.Error("text report missing the PARTIAL banner")
	}
	buf.Reset()
	rep.WriteTenants(&buf, TenantFleet)
	if !strings.Contains(buf.String(), "PARTIAL") {
		t.Error("tenant report missing the PARTIAL banner")
	}

	// Drops alone (no orphans) also flag: evicted events may have been
	// leaves, which ancestry checks cannot see.
	if _, err := Build(sessionEvents(), 1); !errors.As(err, &inc) {
		t.Fatalf("dropped>0 with intact ancestry: want typed error, got %v", err)
	}
}

// TestAnalyzeConservationAndOverlap: contributor self-times conserve
// against the phase total, per-core dispatch overlaps (critical = shared +
// busiest core), and contributors order by (cycles desc, name asc).
func TestAnalyzeConservationAndOverlap(t *testing.T) {
	events := []trace.Event{
		// Two dispatch slices on different cores plus one shared EMC, under
		// one compute segment with 100 cycles of serve-loop self-time.
		ev(3, 2, trace.KindDispatch, trace.CoreTrack(0), "tenant-3", 100, 300),
		ev(4, 2, trace.KindDispatch, trace.CoreTrack(1), "tenant-3", 100, 200),
		ev(5, 2, trace.KindEMC, trace.TrackMonitor, "emc/io", 400, 100),
		ev(2, 1, trace.KindPhase, trace.TrackServer, "compute", 100, 700),
		ev(1, 0, trace.KindServeSession, trace.TrackServer, "serve/tenant/0", 0, 900),
	}
	f, err := Build(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(f)
	if len(rep.Phases) != 1 {
		t.Fatalf("got %d phase rows, want 1", len(rep.Phases))
	}
	r := rep.Phases[0]
	if r.Phase != "compute" || r.Total != 700 {
		t.Fatalf("row %q total %d, want compute/700", r.Phase, r.Total)
	}
	var sum uint64
	for _, c := range r.Contributors {
		sum += c.Cycles
	}
	if sum != r.Total {
		t.Errorf("contributor sum %d != total %d (conservation)", sum, r.Total)
	}
	// shared = serve-loop self (700-600=100) + emc (100); busiest core 300.
	if r.Shared != 200 {
		t.Errorf("shared = %d, want 200", r.Shared)
	}
	if r.Critical != 500 {
		t.Errorf("critical = %d, want 500 (shared 200 + busiest core 300)", r.Critical)
	}
	if len(r.Cores) != 2 || r.Cores[0].Core != 0 || r.Cores[0].Cycles != 300 {
		t.Errorf("cores = %+v, want cpu0=300 cpu1=200", r.Cores)
	}
	if r.Contributors[0].Name != "dispatch" {
		t.Errorf("top contributor = %q, want dispatch (500 cycles)", r.Contributors[0].Name)
	}
	// emc/io and (serve-loop) tie at 100: name order breaks the tie.
	if r.Contributors[1].Name != "(serve-loop)" || r.Contributors[2].Name != "emc/io" {
		t.Errorf("tie-break order wrong: %+v", r.Contributors)
	}
}

// TestAnalyzeDeterministicBytes: two builds of the same snapshot render
// byte-identical reports (map iteration never leaks into the output).
func TestAnalyzeDeterministicBytes(t *testing.T) {
	events := []trace.Event{
		ev(3, 2, trace.KindEMC, trace.TrackMonitor, "emc/io", 10, 30),
		ev(4, 2, trace.KindSyscall, trace.TrackKernel, "syscall/1", 50, 30),
		ev(2, 1, trace.KindPhase, trace.TrackServer, "compute", 0, 100),
		ev(6, 5, trace.KindEMC, trace.TrackMonitor, "emc/attest", 210, 40),
		ev(5, 1, trace.KindPhase, trace.TrackServer, "handshake", 200, 90),
		ev(1, 0, trace.KindServeSession, trace.TrackServer, "serve/tenant/1", 0, 400),
		ev(8, 7, trace.KindEMC, trace.TrackMonitor, "emc/io", 510, 20),
		ev(7, 0, trace.KindPhase, trace.TrackServer, "fleet", 500, 60),
	}
	render := func() string {
		f, err := Build(events, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep := Analyze(f)
		rep.WriteText(&buf)
		rep.WriteTenants(&buf, TenantFleet)
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("renders diverged:\n%s\n---\n%s", a, b)
	}
	// Canonical phase order: handshake before compute before fleet.
	hs := strings.Index(a, "handshake")
	cp := strings.Index(a, "compute")
	fl := strings.Index(a, "fleet")
	if !(hs < cp && cp < fl) {
		t.Errorf("phase order wrong in:\n%s", a)
	}
}

// TestWriteTenantsFilter: the per-tenant table narrows to one tenant.
func TestWriteTenantsFilter(t *testing.T) {
	events := []trace.Event{
		ev(2, 1, trace.KindPhase, trace.TrackServer, "compute", 0, 100),
		ev(1, 0, trace.KindServeSession, trace.TrackServer, "serve/tenant/1", 0, 150),
		ev(4, 3, trace.KindPhase, trace.TrackServer, "compute", 200, 120),
		ev(3, 0, trace.KindServeSession, trace.TrackServer, "serve/tenant/2", 200, 180),
	}
	f, err := Build(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(f)
	var buf bytes.Buffer
	rep.WriteTenants(&buf, 2)
	out := buf.String()
	if !strings.Contains(out, "compute") || strings.Contains(out, "\n1 ") {
		t.Errorf("tenant filter leaked rows:\n%s", out)
	}
	if len(rep.Tenants) != 2 {
		t.Errorf("got %d tenant rows, want 2", len(rep.Tenants))
	}
}
