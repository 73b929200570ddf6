package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/slo"
)

// Status is an immutable post-run introspection snapshot: the registry's
// OpenMetrics export, the watchdog verdict, the fleet report and the
// per-tenant phase breakdown, all captured at one instant. The -statusz
// endpoint serves these frozen bytes — never live simulation state — so
// introspection cannot race the single-threaded world or perturb the
// deterministic clock.
type Status struct {
	// Metrics is the OpenMetrics text exposition of the registry.
	Metrics []byte
	// Healthy is false when the watchdog observed any violation that was not
	// announced via InjectAuditViolation.
	Healthy bool
	// Sweeps and NonInjected summarize the watchdog run.
	Sweeps      uint64
	NonInjected uint64
	// Events is the watchdog violation log in observation order.
	Events []monitor.WatchdogEvent
	// Report is the fleet report (nil if Run has not finished).
	Report *Report
	// Phases is the per-tenant causal cycle breakdown.
	Phases []PhaseRow
	// Egress is the policy table and decision tally (nil when egress
	// enforcement is disarmed).
	Egress *EgressStatus
	// TraceDropped is the flight recorder's evicted-event count (ring
	// overflow); nonzero means span forests reconstructed from this run
	// are partial.
	TraceDropped uint64
	// PhaseLatency is the per-phase latency digest (p50/p99 with tail
	// exemplars) from the session phase histograms.
	PhaseLatency []PhaseLatencyRow
	// SLO is the latest SLO evaluation batch (nil when the engine is
	// disarmed); SLOExhausted is true when any objective's error budget
	// was ever exhausted — which also fails /healthz.
	SLO          []slo.Result
	SLOExhausted bool
	// HighWater is the bounded-resource high-watermark table (the
	// erebor_highwater gauges), sorted by resource name.
	HighWater []HighWaterRow
	// HotStacks is the top-K hottest profiler stacks and ProfTotal the
	// cycles attributed across all stacks (both empty unless the run was
	// profiled via Config.Profile).
	HotStacks []prof.Sample
	ProfTotal uint64
}

// HighWaterRow is one bounded resource's maximum observed occupancy.
type HighWaterRow struct {
	Resource string
	Value    uint64
}

// PhaseLatencyRow is one phase's session-latency digest.
type PhaseLatencyRow struct {
	Phase    string
	Count    uint64
	P50      uint64
	P99      uint64
	Exemplar uint64 // root span ID retained in the p99 bucket
}

// EgressStatus summarizes egress enforcement for the status page.
type EgressStatus struct {
	// Spec is the canonical text of the fleet policy spec.
	Spec string
	// Allowed/Denied are the ledger totals; DenialsSeen/DenialDrops account
	// the typed denial frames (drained vs lost to queue overflow).
	Allowed, Denied, DenialsSeen, DenialDrops uint64
	// Decisions is the per-(rule, verdict) decision tally, sorted.
	Decisions []EgressDecisionRow
}

// EgressDecisionRow is one (rule, verdict) aggregate of egress_decisions.
type EgressDecisionRow struct {
	Rule    string
	Verdict string
	Count   uint64
}

// Status captures the server's introspection snapshot. Call after Run; rep
// may be nil when the run failed before producing a report. It only reads:
// Run publishes the trace-ring watermark when it parks the context.
func (s *Server) Status(rep *Report) *Status {
	var buf bytes.Buffer
	_ = s.w.Met.ExportOpenMetrics(&buf)
	st := &Status{
		Metrics: buf.Bytes(),
		Healthy: true,
		Report:  rep,
		Phases:  s.PhaseBreakdown(),
	}
	if mon := s.w.Mon; mon != nil && mon.WatchdogEnabled() {
		st.Sweeps = mon.WatchdogSweeps()
		st.NonInjected = mon.WatchdogNonInjected()
		st.Events = mon.WatchdogEvents()
		st.Healthy = st.NonInjected == 0
	}
	if s.ledger != nil {
		eg := &EgressStatus{
			Spec:        s.cfg.Egress.String(),
			DenialsSeen: s.denialsSeen,
			DenialDrops: s.denialDrops,
		}
		eg.Allowed, eg.Denied = s.ledger.Counts()
		// Aggregate the labeled decision series per (rule, verdict).
		agg := make(map[[2]string]uint64)
		for _, sv := range s.w.Met.Series(metrics.FamilyEgressDecisions) {
			var rule, verdict string
			for _, l := range sv.Labels {
				switch l.Key {
				case "rule":
					rule = l.Value
				case "verdict":
					verdict = l.Value
				}
			}
			agg[[2]string{rule, verdict}] += sv.Value
		}
		for k, v := range agg {
			eg.Decisions = append(eg.Decisions, EgressDecisionRow{Rule: k[0], Verdict: k[1], Count: v})
		}
		sort.Slice(eg.Decisions, func(i, j int) bool {
			if eg.Decisions[i].Rule != eg.Decisions[j].Rule {
				return eg.Decisions[i].Rule < eg.Decisions[j].Rule
			}
			return eg.Decisions[i].Verdict < eg.Decisions[j].Verdict
		})
		st.Egress = eg
	}
	st.TraceDropped = s.w.Rec.Dropped()
	st.PhaseLatency = s.PhaseLatency()
	if s.sloEng != nil {
		st.SLO = s.sloEng.Latest()
		st.SLOExhausted = s.sloEng.Exhausted()
	}
	for _, sv := range s.w.Met.Series(metrics.FamilyHighWater) {
		var res string
		for _, l := range sv.Labels {
			if l.Key == "resource" {
				res = l.Value
			}
		}
		st.HighWater = append(st.HighWater, HighWaterRow{Resource: res, Value: sv.Value})
	}
	sort.Slice(st.HighWater, func(i, j int) bool {
		return st.HighWater[i].Resource < st.HighWater[j].Resource
	})
	if s.prof.Enabled() {
		st.HotStacks = prof.Top(s.prof.Stacks(), 10)
		st.ProfTotal = s.prof.Total()
	}
	return st
}

// PhaseLatency digests the session phase histograms: per-phase p50/p99
// (reusing the registry histograms' quantile semantics) plus the p99 tail
// exemplar. TTFC rides along as a pseudo-phase. Phases with no
// observations are omitted.
func (s *Server) PhaseLatency() []PhaseLatencyRow {
	var rows []PhaseLatencyRow
	add := func(phase string, count uint64, p50, p99, exem uint64) {
		if count == 0 {
			return
		}
		rows = append(rows, PhaseLatencyRow{Phase: phase, Count: count, P50: p50, P99: p99, Exemplar: exem})
	}
	ttfc := s.w.Met.Hist(metrics.FamilyTTFC)
	add(slo.PhaseTTFC, ttfc.Count, ttfc.Quantile(0.50), ttfc.Quantile(0.99), ttfc.ExemplarAt(0.99))
	for _, ph := range sessionPhases {
		h := s.w.Met.Hist(metrics.FamilyPhaseLatency, metrics.KV("phase", ph))
		add(ph, h.Count, h.Quantile(0.50), h.Quantile(0.99), h.ExemplarAt(0.99))
	}
	return rows
}

// Handler serves the snapshot over HTTP:
//
//	/metrics  — OpenMetrics text exposition (frozen at snapshot time)
//	/healthz  — "ok" (200) or "unhealthy" (503) by the watchdog verdict
//	/statusz  — human-readable fleet status page
func (st *Status) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_, _ = w.Write(st.Metrics)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Failures carry a machine-readable JSON body naming the cause, so a
		// fleet controller can route on it without scraping text; the healthy
		// path stays the stable plain-text "ok" line.
		if !st.Healthy || st.SLOExhausted {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusServiceUnavailable)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st.healthzFailure())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok: %d sweeps, 0 non-injected violations\n", st.Sweeps)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st.WriteText(w)
	})
	return mux
}

// HealthzFailure is the machine-readable /healthz 503 body: the top-level
// cause plus enough structure (violation codes, exhausted objectives,
// watchdog sweep state) for a controller to route on without text scraping.
// Status is always "unhealthy" on this path.
type HealthzFailure struct {
	Status string `json:"status"`
	// Cause is "invariant-violations" or "slo-budget-exhausted"; when both
	// hold, the watchdog verdict wins (it is the stronger signal).
	Cause string `json:"cause"`
	// Watchdog sweep state at snapshot time.
	Sweeps      uint64 `json:"sweeps"`
	NonInjected uint64 `json:"non_injected_violations"`
	// ViolationCodes are the distinct non-injected watchdog violation codes,
	// sorted (empty when the cause is SLO exhaustion alone).
	ViolationCodes []string `json:"violation_codes,omitempty"`
	// ExhaustedSLOs names every objective whose error budget is exhausted in
	// the latest evaluation batch.
	ExhaustedSLOs []string `json:"exhausted_slos,omitempty"`
}

// healthzFailure builds the 503 body; call only when unhealthy.
func (st *Status) healthzFailure() HealthzFailure {
	f := HealthzFailure{
		Status:      "unhealthy",
		Cause:       "slo-budget-exhausted",
		Sweeps:      st.Sweeps,
		NonInjected: st.NonInjected,
	}
	if !st.Healthy {
		f.Cause = "invariant-violations"
		codes := map[string]bool{}
		for _, ev := range st.Events {
			if ev.Severity != "injected" {
				codes[ev.Code] = true
			}
		}
		for c := range codes {
			f.ViolationCodes = append(f.ViolationCodes, c)
		}
		sort.Strings(f.ViolationCodes)
	}
	for _, r := range st.SLO {
		if r.Exhausted {
			f.ExhaustedSLOs = append(f.ExhaustedSLOs, r.Name)
		}
	}
	sort.Strings(f.ExhaustedSLOs)
	return f
}

// WriteText renders the status page: run headline, watchdog verdict, and the
// per-tenant phase table.
func (st *Status) WriteText(w io.Writer) {
	fmt.Fprintf(w, "erebor-serve status\n")
	if rep := st.Report; rep != nil {
		fmt.Fprintf(w, "sessions: %d completed, %d failed (%d forked, %d cold) on %d slots / %d vcpus\n",
			rep.Completed, rep.Failed, rep.ForkSessions, rep.ColdSessions,
			rep.Tenants, rep.VCPUs)
		fmt.Fprintf(w, "cycles: %d total, %d/session\n", rep.TotalCycles, rep.CyclesPerSession)
		if rep.ForkSessions > 0 {
			fmt.Fprintf(w, "fork pool: %d forks from a %d-page template, %d CoW breaks, %d cycles to first compute\n",
				rep.Forks, rep.TemplatePages, rep.CowBreaks, rep.FirstComputeCycles)
		}
	}
	if st.Healthy {
		fmt.Fprintf(w, "watchdog: healthy (%d sweeps, %d injected events)\n", st.Sweeps, len(st.Events))
	} else {
		fmt.Fprintf(w, "watchdog: UNHEALTHY (%d non-injected violations in %d sweeps)\n",
			st.NonInjected, st.Sweeps)
	}
	for _, ev := range st.Events {
		fmt.Fprintf(w, "  [%s] %s %s (%s) frame=%d tenant=%d cycles=%d %s\n",
			ev.Severity, ev.Code, ev.Invariant, ev.Trigger, ev.Frame, ev.Tenant, ev.Cycles, ev.Detail)
	}
	if eg := st.Egress; eg != nil {
		fmt.Fprintf(w, "egress policy: %s\n", eg.Spec)
		fmt.Fprintf(w, "egress: %d allowed, %d denied (%d typed denials drained, %d dropped at queue cap)\n",
			eg.Allowed, eg.Denied, eg.DenialsSeen, eg.DenialDrops)
		for _, d := range eg.Decisions {
			fmt.Fprintf(w, "  %-32s %-6s %12d\n", d.Rule, d.Verdict, d.Count)
		}
	}
	if st.TraceDropped > 0 {
		fmt.Fprintf(w, "trace: %d events dropped (ring overflow) — span forests from this run are partial\n",
			st.TraceDropped)
	}
	if len(st.HighWater) > 0 {
		fmt.Fprintf(w, "\nbounded-resource high watermarks:\n")
		for _, hw := range st.HighWater {
			fmt.Fprintf(w, "  %-16s %12d\n", hw.Resource, hw.Value)
		}
	}
	if len(st.HotStacks) > 0 {
		fmt.Fprintf(w, "\nhot stacks (top %d of %d profiled cycles):\n", len(st.HotStacks), st.ProfTotal)
		fmt.Fprintf(w, "%12s %7s  %s\n", "CYCLES", "SHARE", "STACK")
		for _, hs := range st.HotStacks {
			share := 0.0
			if st.ProfTotal > 0 {
				share = 100 * float64(hs.Cycles) / float64(st.ProfTotal)
			}
			fmt.Fprintf(w, "%12d %6.2f%%  %s\n", hs.Cycles, share, hs.Stack)
		}
	}
	if len(st.PhaseLatency) > 0 {
		fmt.Fprintf(w, "\nphase latency (cycles/session):\n")
		fmt.Fprintf(w, "%-12s %10s %12s %12s %12s\n", "phase", "count", "p50", "p99", "p99 exemplar")
		for _, r := range st.PhaseLatency {
			fmt.Fprintf(w, "%-12s %10d %12d %12d %12d\n", r.Phase, r.Count, r.P50, r.P99, r.Exemplar)
		}
	}
	if st.SLO != nil {
		fmt.Fprintf(w, "\nSLO objectives:\n")
		slo.WriteTable(w, st.SLO)
		if st.SLOExhausted {
			fmt.Fprintf(w, "SLO: error budget EXHAUSTED — /healthz reports 503\n")
		}
	}
	fmt.Fprintf(w, "\n")
	WritePhaseTable(w, st.Phases)
}

// phaseColumns is the fixed column order of the fleet phase table.
var phaseColumns = []string{
	metrics.PhaseHandshake, metrics.PhaseInstall, metrics.PhaseCompute,
	metrics.PhaseOutput, metrics.PhaseRecycle, metrics.PhaseLaunch,
	metrics.PhaseFleet,
}

// WritePhaseTable renders the per-tenant phase breakdown as an aligned text
// table (tenant -1 is the shared fleet row). The trailing TOTAL row sums
// every column; its total equals the run's serial elapsed cycles.
func WritePhaseTable(w io.Writer, rows []PhaseRow) {
	if len(rows) == 0 {
		fmt.Fprintf(w, "no phase attribution recorded\n")
		return
	}
	cols := append([]string(nil), phaseColumns...)
	// Pick up any phase not in the canonical list (forward compatibility).
	known := make(map[string]bool, len(cols))
	for _, c := range cols {
		known[c] = true
	}
	extra := map[string]bool{}
	for _, r := range rows {
		for p := range r.Cycles {
			if !known[p] && !extra[p] {
				extra[p] = true
				cols = append(cols, p)
			}
		}
	}
	sort.Strings(cols[len(phaseColumns):])

	fmt.Fprintf(w, "%8s", "tenant")
	for _, c := range cols {
		fmt.Fprintf(w, " %12s", c)
	}
	fmt.Fprintf(w, " %14s %12s\n", "total", "shootdown")

	total := PhaseRow{Tenant: 0, Cycles: make(map[string]uint64)}
	for _, r := range rows {
		name := fmt.Sprint(r.Tenant)
		if r.Tenant == metrics.NoTenant {
			name = "fleet"
		}
		fmt.Fprintf(w, "%8s", name)
		for _, c := range cols {
			fmt.Fprintf(w, " %12d", r.Cycles[c])
			total.Cycles[c] += r.Cycles[c]
		}
		fmt.Fprintf(w, " %14d %12d\n", r.Total, r.Shootdown)
		total.Total += r.Total
		total.Shootdown += r.Shootdown
	}
	fmt.Fprintf(w, "%8s", "TOTAL")
	for _, c := range cols {
		fmt.Fprintf(w, " %12d", total.Cycles[c])
	}
	fmt.Fprintf(w, " %14d %12d\n", total.Total, total.Shootdown)
}
