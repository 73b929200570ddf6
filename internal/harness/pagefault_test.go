package harness

import (
	"strings"
	"testing"
)

// Every pagefault row is profiled and conserves (checked inside
// runLMBench), its profile totals exactly its attribution window, and the
// ring profile shifts gate-crossing cycles into ring-drain stacks.
func TestProfilePagefaultRingAttribution(t *testing.T) {
	rows, err := MeasurePagefault(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if got := r.Profile.Total(); got != r.WindowCycles {
			t.Errorf("%s: profile totals %d cycles, window %d", r.Mode, got, r.WindowCycles)
		}
	}
	sync, ring := rows[1].Profile, rows[2].Profile
	if syncCycles, ringCycles := rows[1].WindowCycles, rows[2].WindowCycles; ringCycles >= syncCycles {
		t.Fatalf("ring run (%d cycles) did not beat sync (%d)", ringCycles, syncCycles)
	}
	sum := func(stacks map[string]uint64, substr string) uint64 {
		var n uint64
		for s, c := range stacks {
			if strings.Contains(s, substr) {
				n += c
			}
		}
		return n
	}
	syncGates := sum(sync.Stacks(), "monitor/gate/entry") + sum(sync.Stacks(), "monitor/gate/exit")
	ringGates := sum(ring.Stacks(), "monitor/gate/entry") + sum(ring.Stacks(), "monitor/gate/exit")
	if ringGates >= syncGates {
		t.Fatalf("ring gate-crossing cycles (%d) did not shrink below sync (%d)", ringGates, syncGates)
	}
	if drains := sum(ring.Stacks(), "monitor/ring/drain"); drains == 0 {
		t.Fatal("ring profile has no ring-drain stacks")
	}
	if sum(sync.Stacks(), "monitor/ring/drain") != 0 {
		t.Fatal("sync profile has ring-drain stacks")
	}
}
