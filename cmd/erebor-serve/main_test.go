package main

import (
	"bytes"
	"os"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/serve"
)

// TestGoldenOpenMetrics pins the OpenMetrics export of a small traced
// watchdog fleet byte for byte: every registry family, the trace event
// tallies and the per-(tenant, phase) cycle attribution. A change that
// moves any of them must regenerate the fixture deliberately:
//
//	go run ./cmd/erebor-serve -tenants 4 -sessions 8 -seed 7 -vcpus 2 -forkpool -watchdog -trace /tmp/golden-trace.json -quiet -metrics cmd/erebor-serve/testdata/golden-metrics-seed7.txt
func TestGoldenOpenMetrics(t *testing.T) {
	s, err := serve.New(serve.Config{
		Tenants: 4, Sessions: 8, Seed: 7, VCPUs: 2,
		ForkPool: true, Watchdog: true, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d clean-fleet sessions failed", rep.Failed)
	}
	var got bytes.Buffer
	if err := s.World().Met.ExportOpenMetrics(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden-metrics-seed7.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("OpenMetrics export diverged from golden; regenerate with the command in the test comment if intentional.\ngot:\n%s", got.String())
	}
}
