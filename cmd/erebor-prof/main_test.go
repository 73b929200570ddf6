package main

import (
	"bytes"
	"os"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/serve"
)

// TestGoldenFolded pins the folded cycle profile of a small fork-pool
// fleet byte for byte: every (tenant, phase, frame stack) and its cycles.
// A change that moves a cycle between stacks must regenerate the fixture
// deliberately:
//
//	go run ./cmd/erebor-prof -tenants 4 -sessions 8 -seed 7 -vcpus 2 -forkpool -flame cmd/erebor-prof/testdata/golden-seed7.folded
func TestGoldenFolded(t *testing.T) {
	s, err := serve.New(serve.Config{
		Tenants: 4, Sessions: 8, Seed: 7, VCPUs: 2,
		ForkPool: true, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	p := s.Profiler()
	if bad := p.CheckConservation(s.World().Met); len(bad) > 0 {
		t.Fatalf("profile does not conserve: %v", bad)
	}
	var got bytes.Buffer
	if err := p.WriteFolded(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden-seed7.folded")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("folded profile diverged from golden; regenerate with the command in the test comment if intentional.\ngot:\n%s", got.String())
	}
}
