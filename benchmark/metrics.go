package main

import (
	"math"
	"sort"

	"github.com/asterisc-release/erebor-go/internal/costs"
)

// metricSpec is one metric as BENCHMARK.json lists it. Bound is set for
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// virtualBound is the bound of every virtual-clock metric. The simulator
// is deterministic and no workload's cost depends on its seeded payload
// bytes, so these metrics repeat exactly; any worsening is a regression.
const virtualBound = 0.001

// endToEnd are the metrics a user of the simulator sees, per workload.
// Host metrics measure the simulator, virtual ones the modelled Erebor.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"host_ms_per_op", "ms", "lower", 0.25},
	{"host_peak_rss_mb", "MB", "lower", 0.1},
	{"setup_vcycles", "cycles", "lower", virtualBound},
	{"lat_p50_vcycles", "cycles", "lower", virtualBound},
	{"lat_p99_vcycles", "cycles", "lower", virtualBound},
	{"ops_per_vs", "ops/vs", "higher", virtualBound},
}

// hostLayerNames are the layers host CPU samples are attributed to (see
// hostLayer); each gets a <layer>.host_ms_per_op metric.
var hostLayerNames = []string{
	"attest", "secchan", "egress", "serve", "monitor", "watchdog", "kernel",
	"cpu", "paging", "mem", "sandbox", "libos", "workloads", "harness", "obs",
	"runtime", "other",
}

// perLayer are the traced run's metrics, named <layer>.<metric>. README.md
// says which end-to-end metric each should move, on which workload.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"attest.quotes_per_op", "count", "lower", 0},
		{"attest.quote_yield", "ratio", "higher", 0},
		{"attest.ghci_vcycles_per_op", "cycles", "lower", 0},
		{"secchan.retransmits_per_op", "count", "lower", 0},
		{"egress.decisions_per_op", "count", "lower", 0},
		{"serve.rounds_per_op", "count", "lower", 0},
		{"serve.sandbox_kills_per_op", "count", "lower", 0},
		{"serve.ttfc_p50_vcycles", "cycles", "lower", 0},
		{"serve.ttfc_p99_vcycles", "cycles", "lower", 0},
		{"monitor.emcs_per_op", "count", "lower", 0},
		{"monitor.gate_vcycles_per_op", "cycles", "lower", 0},
		{"monitor.emc_mmu_vcycles_per_op", "cycles", "lower", 0},
		{"monitor.emc_sandbox_vcycles_per_op", "cycles", "lower", 0},
		{"monitor.pte_writes_per_op", "count", "lower", 0},
		{"monitor.ring_drains_per_op", "count", "lower", 0},
		{"monitor.ring_entries_per_drain", "count", "higher", 0},
		{"monitor.forks_per_op", "count", "lower", 0},
		{"monitor.cow_breaks_per_op", "count", "lower", 0},
		{"monitor.cow_vcycles_per_op", "cycles", "lower", 0},
		{"watchdog.sweeps_per_op", "count", "lower", 0},
		{"watchdog.host_us_per_sweep", "us", "lower", 0},
		{"kernel.dispatch_vcycles_per_op", "cycles", "lower", 0},
		{"kernel.page_fault_vcycles_per_op", "cycles", "lower", 0},
		{"kernel.page_faults_per_op", "count", "lower", 0},
		{"kernel.timer_ticks_per_op", "count", "lower", 0},
		{"kernel.ve_exits_per_op", "count", "lower", 0},
		{"cpu.tlb_hit_ratio", "ratio", "higher", 0},
		{"cpu.tlb_misses_per_op", "count", "lower", 0},
		{"cpu.ipis_sent_per_op", "count", "lower", 0},
		{"cpu.ipi_yield", "ratio", "higher", 0},
		{"cpu.shootdown_vcycles_per_op", "cycles", "lower", 0},
		{"cpu.deliver_vcycles_per_op", "cycles", "lower", 0},
		{"cpu.page_walk_vcycles_per_op", "cycles", "lower", 0},
		{"libos.user_compute_vcycles_per_op", "cycles", "lower", 0},
		{"obs.trace_overhead_pct", "%", "lower", 0},
		{"runtime.allocs_per_op", "count", "lower", 0},
		{"runtime.alloc_kb_per_op", "KB", "lower", 0},
	}
	for _, ph := range phases {
		specs = append(specs, metricSpec{"phase." + ph + "_vcycles_per_op", "cycles", "lower", 0})
	}
	for _, l := range hostLayerNames {
		specs = append(specs, metricSpec{l + ".host_ms_per_op", "ms", "lower", 0})
	}
	return specs
}()

// repResult is what one rep reports to the parent process.
type repResult struct {
	Ops      int       `json:"ops"` // attempted
	Failed   int       `json:"failed"`
	SetupCPU []float64 `json:"setup_cpu_s"` // one entry per set-up the rep made
	OpCPU    float64   `json:"op_cpu_s"`    // process CPU time of the op windows
	SetupV   uint64    `json:"setup_vcycles"`
	WallV    uint64    `json:"wall_vcycles"` // virtual wall time of the op windows
	Lat      []uint64  `json:"lat_vcycles"`  // per completed op
	// Counts are per-layer metrics read from the simulator's exported
	// state; they are virtual and repeat exactly.
	Counts map[string]float64 `json:"counts"`
	// Profile holds the per-layer virtual cycles the cycle profiler
	// attributes (traced reps only).
	Profile    map[string]float64 `json:"profile,omitempty"`
	HostNS     map[string]int64   `json:"host_layer_ns,omitempty"` // traced reps only
	Allocs     uint64             `json:"allocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Output     string             `json:"output,omitempty"` // the inference text (llm-infer)
	Errors     []string           `json:"errors,omitempty"`
	PeakRSSKB  int64              `json:"peak_rss_kb"` // the rep process's VmHWM
}

// virtualPart is the part of a rep result that must not depend on tracing.
func (r *repResult) virtualPart() any {
	return struct {
		SetupV, WallV uint64
		Lat           []uint64
		Counts        map[string]float64
		Output        string
	}{r.SetupV, r.WallV, r.Lat, r.Counts, r.Output}
}

// percentile returns the nearest-rank p-quantile of v (0 when empty).
func percentile(v []uint64, p float64) uint64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]uint64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEndMetrics aggregates the untraced reps of one workload, which all
// did the same work (outcome.finish checks it). Virtual metrics come from
// the first rep. Host time takes the fastest rep: a shared machine only
// ever adds time. Set-up time and memory take the median.
func endToEndMetrics(reps []*repResult) map[string]float64 {
	var setups, rss []float64
	best := math.Inf(1)
	for _, r := range reps {
		setups = append(setups, r.SetupCPU...)
		rss = append(rss, float64(r.PeakRSSKB)/1024)
		best = math.Min(best, r.OpCPU)
	}
	r := reps[0]
	return map[string]float64{
		"setup_s":          median(setups),
		"host_ms_per_op":   best * 1e3 / float64(r.Ops),
		"host_peak_rss_mb": median(rss),
		"setup_vcycles":    float64(r.SetupV),
		"lat_p50_vcycles":  float64(percentile(r.Lat, 0.50)),
		"lat_p99_vcycles":  float64(percentile(r.Lat, 0.99)),
		"ops_per_vs":       float64(len(r.Lat)) / costs.CyclesToSeconds(r.WallV),
	}
}

// perLayerMetrics combines a traced rep with the untraced rep of the same
// seed: counts and virtual cycles from the traced one, host time per layer
// from its CPU profile, allocations and the tracing overhead against the
// untraced one.
func perLayerMetrics(traced, plain *repResult) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range traced.Counts {
		out[k] = v
	}
	for k, v := range traced.Profile {
		out[k] = v
	}
	ops := float64(traced.Ops)
	for _, l := range hostLayerNames {
		out[l+".host_ms_per_op"] = float64(traced.HostNS[l]) / 1e6 / ops
	}
	if sweeps := traced.Counts["watchdog.sweeps_per_op"] * ops; sweeps > 0 {
		out["watchdog.host_us_per_sweep"] = float64(traced.HostNS["watchdog"]) / 1e3 / sweeps
	} else {
		out["watchdog.host_us_per_sweep"] = 0
	}
	out["obs.trace_overhead_pct"] = (traced.OpCPU/ops/(plain.OpCPU/float64(plain.Ops)) - 1) * 100
	out["runtime.allocs_per_op"] = float64(plain.Allocs) / float64(plain.Ops)
	out["runtime.alloc_kb_per_op"] = float64(plain.AllocBytes) / 1024 / float64(plain.Ops)
	return out
}
