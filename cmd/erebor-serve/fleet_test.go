package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/critpath"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// TestGoldenCriticalPath pins the fleet critical-path breakdown for a
// fixed (seed, config) byte-for-byte. The CI gate: any change to span
// plumbing, the analyzer, or serve scheduling that moves the breakdown
// must regenerate this fixture deliberately:
//
//	go run ./cmd/erebor-serve -seed 1 -tenants 8 -sessions 16 -vcpus 2 -forkpool -quiet -critical-path cmd/erebor-serve/testdata/golden-critpath-seed1.txt
func TestGoldenCriticalPath(t *testing.T) {
	out := filepath.Join(t.TempDir(), "critpath.txt")
	s, rep := runCmd(t, "-seed", "1", "-tenants", "8", "-sessions", "16", "-vcpus", "2", "-forkpool",
		"-critical-path", out)
	if rep.Failed != 0 {
		t.Fatalf("%d clean-fleet sessions failed", rep.Failed)
	}
	rec := s.World().Rec
	if _, cerr := critpath.Build(rec.Snapshot(), rec.Dropped()); cerr != nil {
		t.Fatalf("clean fleet built a partial forest: %v", cerr)
	}
	got, golden := readFile(t, out), readFile(t, "testdata/golden-critpath-seed1.txt")
	if !bytes.Equal(got, golden) {
		t.Errorf("critical-path breakdown diverged from golden; regenerate with the command in the test comment if intentional.\ngot:\n%s\nwant:\n%s",
			got, golden)
	}
}

// TestFleetCriticalPathDeterminism: under combined chaos and latency
// injection, two identically-seeded fleets render byte-identical
// breakdowns (both tables), per the determinism contract.
func TestFleetCriticalPathDeterminism(t *testing.T) {
	render := func() string {
		s, _ := runCmd(t, "-seed", "9", "-tenants", "4", "-sessions", "8", "-vcpus", "2", "-forkpool",
			"-chaos", "0.05", "-chaos-latency", "0.2", "-critical-path", filepath.Join(t.TempDir(), "critpath.txt"))
		rec := s.World().Rec
		forest, _ := critpath.Build(rec.Snapshot(), rec.Dropped())
		if len(forest.Sessions) == 0 {
			t.Fatal("the fleet recorded no session trees")
		}
		rep := critpath.Analyze(forest)
		var buf bytes.Buffer
		rep.WriteText(&buf)
		rep.WriteTenants(&buf, critpath.TenantFleet)
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("chaos fleet breakdowns diverged:\n%s\n---\n%s", a, b)
	}
}

// TestFleetFilters: -track narrows the export to one track's events and
// -tenant keeps exactly the spans under that tenant's session roots.
func TestFleetFilters(t *testing.T) {
	s, _ := runCmd(t, "-seed", "1", "-tenants", "4", "-sessions", "8", "-forkpool",
		"-trace", filepath.Join(t.TempDir(), "fleet.json"))
	events, dropped := s.World().Rec.Snapshot(), s.World().Rec.Dropped()

	mon := filterTrack(events, "monitor")
	if len(mon) == 0 {
		t.Fatal("monitor track filter kept nothing")
	}
	for _, ev := range mon {
		if trace.TrackName(ev.Track) != "monitor" {
			t.Fatalf("track filter leaked %q", trace.TrackName(ev.Track))
		}
	}

	forest, err := critpath.Build(events, dropped)
	if err != nil {
		t.Fatal(err)
	}
	wantTenant := forest.Sessions[0].Tenant
	kept := filterTenant(events, dropped, wantTenant)
	if len(kept) == 0 {
		t.Fatal("tenant filter kept nothing")
	}
	// Every kept event's span must sit in one of the tenant's trees.
	for _, ev := range kept {
		n, ok := forest.Nodes[ev.Span]
		if !ok {
			t.Fatalf("tenant filter kept unindexed span %d", ev.Span)
		}
		// Walk up to the root via the forest.
		for n.Event.Parent != 0 {
			n = forest.Nodes[n.Event.Parent]
		}
		sess := forest.SessionByRoot(n.Event.Span)
		if sess == nil || sess.Tenant != wantTenant {
			t.Fatalf("tenant filter leaked span %d (root %d)", ev.Span, n.Event.Span)
		}
	}
	// And the filter must be a strict subset: other tenants exist.
	if len(kept) >= len(events) {
		t.Error("tenant filter kept every event")
	}
}
