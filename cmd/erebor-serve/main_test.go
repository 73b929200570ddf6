package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/critpath"
	"github.com/asterisc-release/erebor-go/internal/serve"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// runCmd runs the command on args with stdout discarded and fails the test
// on a non-zero exit. It returns the server and its report.
func runCmd(t *testing.T, args ...string) (*serve.Server, *serve.Report) {
	t.Helper()
	var stderr bytes.Buffer
	s, rep, status := run(args, io.Discard, &stderr)
	if status != 0 {
		t.Fatalf("erebor-serve %s: exit %d\n%s", strings.Join(args, " "), status, stderr.String())
	}
	return s, rep
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

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

// TestOneRunEveryView: one command line blows an SLO, writes the critical
// path and the cycle profile, and every view describes that same run. The
// profile conserves, the span forest is complete, the blown compute-p99
// exemplar is a session root of the run's forest, and that session's
// compute row names the injected latency stall as a contributor.
func TestOneRunEveryView(t *testing.T) {
	dir := t.TempDir()
	critPath, flame := filepath.Join(dir, "critpath.txt"), filepath.Join(dir, "fleet.folded")
	var stdout, stderr bytes.Buffer
	s, _, status := run([]string{
		"-tenants", "8", "-sessions", "16", "-seed", "3", "-vcpus", "2", "-forkpool",
		"-slo", "default", "-chaos-latency", "0.4", "-chaos-latency-cycles", "400000",
		"-critical-path", critPath, "-flame", flame,
	}, &stdout, &stderr)
	if status != 0 {
		t.Fatalf("exit %d\n%s", status, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}

	p := s.Profiler()
	if bad := p.CheckConservation(s.World().Met); len(bad) > 0 {
		t.Fatalf("profile does not conserve: %v", bad)
	}
	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, flame), folded.Bytes()) {
		t.Error("-flame file is not the run's folded profile")
	}

	rec := s.World().Rec
	forest, err := critpath.Build(rec.Snapshot(), rec.Dropped())
	if err != nil {
		t.Fatalf("partial forest: %v", err)
	}
	cp := critpath.Analyze(forest)
	var text bytes.Buffer
	cp.WriteText(&text)
	if !bytes.Equal(readFile(t, critPath), text.Bytes()) {
		t.Error("-critical-path file is not the run's breakdown")
	}

	var exemplar uint64
	for _, r := range s.SLO().Latest() {
		if r.Name == "compute-p99" && r.Exhausted {
			exemplar = r.Exemplar
		}
	}
	if exemplar == 0 {
		t.Fatalf("compute-p99 did not blow or named no exemplar:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "BLOWN") {
		t.Errorf("the SLO table on stdout shows no blown objective:\n%s", stdout.String())
	}
	sess := forest.SessionByRoot(trace.SpanID(exemplar))
	if sess == nil {
		t.Fatalf("exemplar span %d is not a session root of the run's forest", exemplar)
	}
	if sess.Tenant != 14 {
		t.Errorf("exemplar span %d is tenant %d's session, want tenant 14", exemplar, sess.Tenant)
	}
	var latency uint64
	for _, row := range cp.Tenants {
		if row.Tenant != sess.Tenant || row.Phase != "compute" {
			continue
		}
		for _, c := range row.Contributors {
			if c.Name == "latency" {
				latency = c.Cycles
			}
		}
	}
	if latency != 400000 {
		t.Errorf("tenant %d's compute row charges latency=%d, want the injected 400000-cycle stall", sess.Tenant, latency)
	}
}
