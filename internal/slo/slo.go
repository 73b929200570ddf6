// Package slo is the deterministic SLO engine: declarative per-phase
// latency objectives evaluated against the metrics registry's histograms
// at aligned virtual-clock boundaries.
//
// Everything is a pure function of histogram state at the evaluation
// boundary, and boundaries are aligned multiples of the window on the
// virtual clock — so two identically-seeded runs produce byte-identical
// evaluation streams (the CI SLO-report determinism gate diffs them).
// Evaluating never charges the clock: an SLO-monitored run is
// cycle-identical to an unmonitored one.
//
// Error budgets follow the standard shape: an objective with budget b
// allows b·Count violating observations; BudgetUsed is the fraction of
// that allowance consumed, and the budget is exhausted when it exceeds 1.
// Violations are counted at histogram-bucket granularity (CountAbove), the
// same resolution Quantile reports, so "observed p99 <= target" and
// "budget intact" can never disagree about the same histogram.
//
// Exemplars close the loop to the trace: each histogram tail bucket
// retains the span/session ID of the last observation that landed in it,
// so a blown objective names the concrete session tree that explains it
// (feed the ID to the critical-path analyzer or erebor-serve -tenant).
package slo

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// PhaseTTFC is the pseudo-phase selecting the time-to-first-compute
// histogram (admission to first compute step) instead of a per-phase one.
const PhaseTTFC = "ttfc"

// DefaultWindow is the evaluation cadence in virtual cycles (~24 ms at
// 2.1 GHz — a few fleet rounds per window at typical configurations).
const DefaultWindow = 50_000_000

// Objective is one declarative latency objective: "quantile q of phase
// latency stays at or under Target cycles, with Budget of observations
// allowed over".
type Objective struct {
	// Name identifies the objective in reports (default "<phase>-p<q>").
	Name string
	// Phase selects the histogram: PhaseTTFC or a serve phase name
	// (handshake, install, compute, output).
	Phase string
	// Quantile in (0,1], e.g. 0.99.
	Quantile float64
	// Target is the latency objective in virtual cycles.
	Target uint64
	// Budget is the allowed violating fraction of observations (0.01 =
	// 1%). 0 means zero tolerance: any violation exhausts the budget.
	Budget float64
}

// displayName renders the default objective name.
func (o Objective) displayName() string {
	if o.Name != "" {
		return o.Name
	}
	// Render the percentile to 4 decimals and trim: parsed specs like
	// "p99.9" carry float noise that -1 precision would print verbatim.
	q := strings.TrimRight(strings.TrimRight(strconv.FormatFloat(o.Quantile*100, 'f', 4, 64), "0"), ".")
	return o.Phase + "-p" + q
}

// HistSource is where the engine reads histograms from; the metrics
// registry implements it.
type HistSource interface {
	Hist(name string, labels ...metrics.Label) metrics.Histogram
}

// hist selects the objective's histogram from the source.
func (o Objective) hist(src HistSource) metrics.Histogram {
	if o.Phase == PhaseTTFC {
		return src.Hist(metrics.FamilyTTFC)
	}
	return src.Hist(metrics.FamilyPhaseLatency, metrics.KV("phase", o.Phase))
}

// Result is one objective evaluated at one boundary.
type Result struct {
	// Window is the virtual-cycle boundary the evaluation is aligned to.
	Window uint64
	// Final marks the end-of-run evaluation (Window = end cycle).
	Final bool
	// Objective identity.
	Name     string
	Phase    string
	Quantile float64
	Target   uint64
	// Observed is the histogram's Quantile(q) upper bound in cycles.
	Observed uint64
	// Count is the total observations so far; Violations the cumulative
	// bucket-granular count above Target; Burn the violations added since
	// the previous evaluation of this objective.
	Count      uint64
	Violations uint64
	Burn       uint64
	// BudgetUsed is Violations / (Budget·Count): the fraction of the error
	// budget consumed (>1 = exhausted). With a zero allowance it reports
	// the raw violation count.
	BudgetUsed float64
	Exhausted  bool
	// Met is the headline verdict: Observed <= Target.
	Met bool
	// Exemplar is the span/session ID retained in the quantile's bucket
	// (0 when tracing was off or the bucket holds none): the tree that
	// explains the tail.
	Exemplar uint64
}

// Engine evaluates a fixed objective set on a cadence. Not safe for
// concurrent use; the serving loop drives it from the simulation thread.
type Engine struct {
	objs   []Objective
	window uint64

	results   []Result
	prev      map[string]uint64 // objective name -> last cumulative violations
	exhausted bool
}

// NewEngine builds an engine (window 0 = DefaultWindow).
func NewEngine(objs []Objective, window uint64) *Engine {
	if window == 0 {
		window = DefaultWindow
	}
	return &Engine{objs: objs, window: window, prev: make(map[string]uint64)}
}

// Window is the evaluation cadence in virtual cycles.
func (e *Engine) Window() uint64 { return e.window }

// Evaluate runs every objective against src at the aligned boundary `at`,
// appending one Result per objective.
func (e *Engine) Evaluate(src HistSource, at uint64) {
	e.evaluate(src, at, false)
}

// Final runs the end-of-run evaluation at the run's last cycle.
func (e *Engine) Final(src HistSource, at uint64) {
	e.evaluate(src, at, true)
}

func (e *Engine) evaluate(src HistSource, at uint64, final bool) {
	for _, o := range e.objs {
		h := o.hist(src)
		name := o.displayName()
		res := Result{
			Window: at, Final: final,
			Name: name, Phase: o.Phase, Quantile: o.Quantile, Target: o.Target,
			Observed: h.Quantile(o.Quantile),
			Count:    h.Count,
			Exemplar: h.ExemplarAt(o.Quantile),
		}
		res.Met = res.Observed <= o.Target
		res.Violations = h.CountAbove(o.Target)
		res.Burn = res.Violations - e.prev[name]
		e.prev[name] = res.Violations
		allowed := o.Budget * float64(h.Count)
		switch {
		case res.Violations == 0:
			res.BudgetUsed = 0
		case allowed > 0:
			res.BudgetUsed = float64(res.Violations) / allowed
		default:
			// Zero allowance (budget 0, or no observations yet counted):
			// report the raw violation count; any violation exhausts.
			res.BudgetUsed = float64(res.Violations)
		}
		res.Exhausted = res.Violations > 0 && (allowed <= 0 || float64(res.Violations) > allowed)
		if res.Exhausted {
			e.exhausted = true
		}
		e.results = append(e.results, res)
	}
}

// Results returns every evaluation in order.
func (e *Engine) Results() []Result {
	if e == nil {
		return nil
	}
	return e.results
}

// Latest returns the most recent evaluation batch (one Result per
// objective), nil before the first evaluation.
func (e *Engine) Latest() []Result {
	if e == nil || len(e.results) < len(e.objs) || len(e.objs) == 0 {
		return nil
	}
	return e.results[len(e.results)-len(e.objs):]
}

// Exhausted reports whether any objective's error budget has ever been
// exhausted (the /healthz 503 condition).
func (e *Engine) Exhausted() bool { return e != nil && e.exhausted }

// fixedFloat renders a float with fixed precision (byte-stable exports).
func fixedFloat(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// ExportJSONL writes every evaluation as one JSON object per line, in
// evaluation order. Fields are emitted in a fixed order with fixed float
// formatting, so the export is byte-deterministic per (seed, config).
func (e *Engine) ExportJSONL(w io.Writer) error {
	if e == nil {
		return nil
	}
	for _, r := range e.results {
		_, err := fmt.Fprintf(w,
			`{"window":%d,"final":%t,"name":"%s","phase":"%s","q":%s,"target":%d,`+
				`"observed":%d,"count":%d,"violations":%d,"burn":%d,`+
				`"budget_used":%s,"exhausted":%t,"met":%t,"exemplar":%d}`+"\n",
			r.Window, r.Final, r.Name, r.Phase, fixedFloat(r.Quantile, 4), r.Target,
			r.Observed, r.Count, r.Violations, r.Burn,
			fixedFloat(r.BudgetUsed, 6), r.Exhausted, r.Met, r.Exemplar)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders one evaluation batch as an aligned text table (the
// /statusz SLO section).
func WriteTable(w io.Writer, results []Result) {
	if len(results) == 0 {
		fmt.Fprintf(w, "no SLO evaluations recorded\n")
		return
	}
	fmt.Fprintf(w, "%-16s %10s %12s %12s %8s %10s %10s %12s %-6s\n",
		"objective", "count", "target", "observed", "viol", "burn", "budget%", "exemplar", "state")
	for _, r := range results {
		state := "ok"
		switch {
		case r.Exhausted:
			state = "BLOWN"
		case !r.Met:
			state = "over"
		}
		fmt.Fprintf(w, "%-16s %10d %12d %12d %8d %10d %10s %12d %-6s\n",
			r.Name, r.Count, r.Target, r.Observed, r.Violations, r.Burn,
			fixedFloat(r.BudgetUsed*100, 2), r.Exemplar, state)
	}
}

// ParseObjectives parses a declarative objective spec:
//
//	"ttfc:p99<=2000000@0.01; compute:p99<=8000000"
//
// Each clause is phase:pQ<=target[@budget], with target in virtual cycles
// and budget the allowed violating fraction (default 0.01). Clauses are
// ';'-separated.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		colon := strings.IndexByte(clause, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("slo: clause %q: want phase:pQ<=target[@budget]", clause)
		}
		o := Objective{Phase: strings.TrimSpace(clause[:colon]), Budget: 0.01}
		rest := strings.TrimSpace(clause[colon+1:])
		if !strings.HasPrefix(rest, "p") {
			return nil, fmt.Errorf("slo: clause %q: quantile must start with 'p'", clause)
		}
		rest = rest[1:]
		le := strings.Index(rest, "<=")
		if le <= 0 {
			return nil, fmt.Errorf("slo: clause %q: missing '<='", clause)
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(rest[:le]), 64)
		if err != nil || q <= 0 || q > 100 {
			return nil, fmt.Errorf("slo: clause %q: bad quantile", clause)
		}
		o.Quantile = q / 100
		rest = strings.TrimSpace(rest[le+2:])
		if at := strings.IndexByte(rest, '@'); at >= 0 {
			b, err := strconv.ParseFloat(strings.TrimSpace(rest[at+1:]), 64)
			if err != nil || b < 0 || b >= 1 {
				return nil, fmt.Errorf("slo: clause %q: bad budget", clause)
			}
			o.Budget = b
			rest = strings.TrimSpace(rest[:at])
		}
		t, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("slo: clause %q: bad target cycles: %v", clause, err)
		}
		o.Target = t
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty objective spec")
	}
	return out, nil
}

// Default is the stock serving objective set, calibrated against the
// 64-tenant serving config (clean p99s pass with >1.5x margin; injected
// latency at the stock -chaos-latency walkthrough rates blows ttfc and
// compute). TTFC scales with fleet size — all slots admit at once and
// handshakes serialize — so much larger fleets need their own spec.
// Targets are in virtual cycles at the simulated 2.1 GHz.
func Default() []Objective {
	return []Objective{
		{Phase: PhaseTTFC, Quantile: 0.99, Target: 24_000_000, Budget: 0.01},
		{Phase: "handshake", Quantile: 0.99, Target: 4_000_000, Budget: 0.01},
		{Phase: "compute", Quantile: 0.99, Target: 400_000, Budget: 0.01},
	}
}
