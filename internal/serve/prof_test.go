package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/slo"
)

// A profiled run must be indistinguishable from a bare run: the profiler
// observes Clock.Charge, it never calls it, so per (seed, config) the report
// bytes — cycle counts included — are identical with and without it.
func TestProfiledRunCycleNeutral(t *testing.T) {
	run := func(profile bool) []byte {
		s, err := New(Config{Tenants: 4, Sessions: 8, Seed: 7, VCPUs: 2, Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.JSON()
	}
	bare, profiled := run(false), run(true)
	if !bytes.Equal(bare, profiled) {
		t.Fatalf("profiling perturbed the run:\nbare:     %s\nprofiled: %s", bare, profiled)
	}
}

// Every PTE write the monitor counts during a profiled fork-pool run — fault
// installs, fork instantiation, CoW breaks, teardown — is charged under
// monitor/pte-write and nowhere else, so the frame's cycles are exactly the
// count times the write's cost.
func TestPTEWriteFrameMatchesCount(t *testing.T) {
	s, err := New(Config{Tenants: 4, Sessions: 8, Seed: 7, VCPUs: 2, ForkPool: true, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	mon := s.World().Mon
	before := mon.Stats.PTEWrites
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	writes := mon.Stats.PTEWrites - before
	if writes == 0 {
		t.Fatal("a fork-pool run counted no PTE writes")
	}
	var got uint64
	for stack, n := range s.Profiler().Stacks() {
		if strings.HasSuffix(stack, ";monitor/pte-write") {
			got += n
		}
	}
	if want := writes * costs.EreborPTEWriteBody; got != want {
		t.Fatalf("monitor/pte-write holds %d cycles; %d counted writes cost %d", got, writes, want)
	}
}

// Every virtual cycle the run charges lands in exactly one profiler stack:
// at 64 tenants the per-(tenant, phase) stack totals must equal the metrics
// registry's phase attribution bucket for bucket, with nothing dropped and
// the frame stack balanced.
func TestProfilerConservation64Tenants(t *testing.T) {
	s, err := New(Config{Tenants: 64, Sessions: 128, Seed: 1, VCPUs: 4,
		MemMB: 512, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	p := s.Profiler()
	if bad := p.CheckConservation(s.World().Met); len(bad) != 0 {
		t.Fatalf("conservation failed:\n%s", strings.Join(bad, "\n"))
	}
	if p.Total() == 0 {
		t.Fatal("profiler attributed zero cycles over a 128-session run")
	}
	// Spot-check one bucket directly against the registry.
	totals := p.Totals()
	var checked int
	for _, sv := range s.World().Met.Series(metrics.FamilyTenantPhaseCycles) {
		var tenant, phase string
		for _, l := range sv.Labels {
			switch l.Key {
			case "tenant":
				tenant = l.Value
			case "phase":
				phase = l.Value
			}
		}
		for k, v := range totals {
			if k.Phase == phase && metrics.TenantLabelOf(k.Tenant) == tenant && v != sv.Value {
				t.Fatalf("bucket (%s, %s): profiler %d, metrics %d", tenant, phase, v, sv.Value)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no tenant-phase series in the registry")
	}
}

// Two identically-configured profiled runs export byte-identical folded and
// pprof profiles.
func TestProfileExportsDeterministic(t *testing.T) {
	export := func() ([]byte, []byte) {
		s, err := New(Config{Tenants: 8, Sessions: 16, Seed: 3, VCPUs: 2, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var folded, pb bytes.Buffer
		if err := s.Profiler().WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		if err := s.Profiler().WritePprof(&pb); err != nil {
			t.Fatal(err)
		}
		return folded.Bytes(), pb.Bytes()
	}
	f1, p1 := export()
	f2, p2 := export()
	if len(f1) == 0 || !bytes.Equal(f1, f2) {
		t.Fatal("folded profile empty or not byte-deterministic across identical runs")
	}
	if len(p1) == 0 || !bytes.Equal(p1, p2) {
		t.Fatal("pprof profile empty or not byte-deterministic across identical runs")
	}
}

// A profiled run's statusz surfaces the hottest stacks and the bounded-
// resource high watermarks.
func TestStatuszHotStacksAndWatermarks(t *testing.T) {
	s, err := New(Config{Tenants: 4, Sessions: 8, Seed: 5, VCPUs: 2,
		Profile: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Status(rep)
	if len(st.HotStacks) == 0 || st.ProfTotal == 0 {
		t.Fatalf("no hot stacks in profiled status (total=%d)", st.ProfTotal)
	}
	var found bool
	for _, hw := range st.HighWater {
		if hw.Resource == metrics.ResourceTraceRing && hw.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace-ring watermark missing from status: %+v", st.HighWater)
	}
	var page bytes.Buffer
	st.WriteText(&page)
	if !strings.Contains(page.String(), "hot stacks") ||
		!strings.Contains(page.String(), "high watermarks") {
		t.Fatal("statusz page missing hot-stack or watermark sections")
	}
	if !strings.Contains(string(st.Metrics), metrics.FamilyHighWater) {
		t.Fatal("high-watermark family missing from the OpenMetrics export")
	}
}

// /healthz failures answer with a machine-readable JSON body naming the
// cause; the healthy path stays the stable plain-text "ok" line.
func TestHealthzFailureJSON(t *testing.T) {
	s, err := New(Config{Tenants: 2, Sessions: 4, Seed: 2, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Status(rep)
	st.SLOExhausted = true
	st.SLO = append(st.SLO, slo.Result{Name: "ttfc-p99", Exhausted: true})
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("healthz failure content-type = %q", ct)
	}
	var body HealthzFailure
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "unhealthy" || body.Cause != "slo-budget-exhausted" {
		t.Fatalf("healthz body = %+v", body)
	}
	if len(body.ExhaustedSLOs) != 1 || body.ExhaustedSLOs[0] != "ttfc-p99" {
		t.Fatalf("exhausted SLOs = %v", body.ExhaustedSLOs)
	}

	// Watchdog violations outrank SLO exhaustion as the cause.
	st.Healthy, st.NonInjected = false, 2
	f := st.healthzFailure()
	if f.Cause != "invariant-violations" || f.NonInjected != 2 {
		t.Fatalf("violation cause = %+v", f)
	}
}
