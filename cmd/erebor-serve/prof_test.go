package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestGoldenFolded pins the folded cycle profile of a small fork-pool
// fleet byte for byte: every (tenant, phase, frame stack) and its cycles.
// A change that moves a cycle between stacks must regenerate the fixture
// deliberately:
//
//	go run ./cmd/erebor-serve -tenants 4 -sessions 8 -seed 7 -vcpus 2 -forkpool -quiet -flame cmd/erebor-serve/testdata/golden-seed7.folded
func TestGoldenFolded(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet.folded")
	s, _ := runCmd(t, "-tenants", "4", "-sessions", "8", "-seed", "7", "-vcpus", "2", "-forkpool",
		"-flame", out)
	p := s.Profiler()
	if bad := p.CheckConservation(s.World().Met); len(bad) > 0 {
		t.Fatalf("profile does not conserve: %v", bad)
	}
	got, want := readFile(t, out), readFile(t, "testdata/golden-seed7.folded")
	if !bytes.Equal(got, want) {
		t.Errorf("folded profile diverged from golden; regenerate with the command in the test comment if intentional.\ngot:\n%s", got)
	}
}
