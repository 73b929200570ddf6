package main

import (
	"strings"

	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// phases are the serving loop's attribution phases, in PhaseBreakdown's
// vocabulary; each gets a phase.<name>_vcycles_per_op metric.
var phases = []string{
	metrics.PhaseHandshake, metrics.PhaseInstall, metrics.PhaseCompute,
	metrics.PhaseOutput, metrics.PhaseLaunch, metrics.PhaseRecycle, metrics.PhaseFleet,
}

// counters reads the simulator's exported event counters. Reading charges
// no virtual cycles.
func counters(k *kernel.Kernel) map[string]uint64 {
	m := k.M
	c := map[string]uint64{
		"page_faults":  k.Stats.PageFaults,
		"timer_ticks":  k.Stats.TimerTicks,
		"ve_exits":     m.TrapCounts[cpu.VecVE].Load(),
		"ipis_sent":    m.IPIsSent,
		"ipis_skipped": m.IPIsSkipped,
	}
	for _, core := range m.Cores {
		c["tlb_hits"] += core.TLBHits
		c["tlb_misses"] += core.TLBMisses
	}
	if mon := k.Mon; mon != nil {
		c["emcs"] = mon.Stats.EMCs
		c["pte_writes"] = mon.Stats.PTEWrites
		c["forks"] = mon.Stats.SandboxForks
		c["cow_breaks"] = mon.Stats.CowBreaks
		c["quotes"] = mon.Stats.QuotesIssued
		c["sandbox_kills"] = mon.Stats.SandboxKills
		c["sweeps"] = mon.WatchdogSweeps()
		c["retransmits"] = mon.ChannelStats().Retransmits
		c["ring_drains"] = k.Met.Value(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "committed"))
		for _, n := range k.Met.CounterMap(metrics.FamilyEMCRingOps, "op") {
			c["ring_entries"] += n
		}
	}
	return c
}

// addDelta accumulates after-before into acc.
func addDelta(acc, after, before map[string]uint64) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}

// countMetrics turns the counter changes over a rep's op windows into
// per-op layer metrics. The serving-only metrics start at zero; serving
// reps overwrite them.
func countMetrics(d map[string]uint64, ops, completed int) map[string]float64 {
	per := func(k string) float64 { return float64(d[k]) / float64(ops) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out := map[string]float64{
		"attest.quotes_per_op":           per("quotes"),
		"attest.quote_yield":             ratio(uint64(completed), d["quotes"]),
		"secchan.retransmits_per_op":     per("retransmits"),
		"egress.decisions_per_op":        per("egress_decisions"),
		"serve.rounds_per_op":            per("rounds"),
		"serve.sandbox_kills_per_op":     per("sandbox_kills"),
		"serve.ttfc_p50_vcycles":         0,
		"serve.ttfc_p99_vcycles":         0,
		"monitor.emcs_per_op":            per("emcs"),
		"monitor.pte_writes_per_op":      per("pte_writes"),
		"monitor.ring_drains_per_op":     per("ring_drains"),
		"monitor.ring_entries_per_drain": ratio(d["ring_entries"], d["ring_drains"]),
		"monitor.forks_per_op":           per("forks"),
		"monitor.cow_breaks_per_op":      per("cow_breaks"),
		"watchdog.sweeps_per_op":         per("sweeps"),
		"kernel.page_faults_per_op":      per("page_faults"),
		"kernel.timer_ticks_per_op":      per("timer_ticks"),
		"kernel.ve_exits_per_op":         per("ve_exits"),
		"cpu.tlb_hit_ratio":              ratio(d["tlb_hits"], d["tlb_hits"]+d["tlb_misses"]),
		"cpu.tlb_misses_per_op":          per("tlb_misses"),
		"cpu.ipis_sent_per_op":           per("ipis_sent"),
		"cpu.ipi_yield":                  ratio(d["ipis_sent"], d["ipis_sent"]+d["ipis_skipped"]),
	}
	for _, ph := range phases {
		out["phase."+ph+"_vcycles_per_op"] = 0
	}
	return out
}

// frameRule attributes the cycles of folded stacks to one metric: the
// stacks whose innermost frame (self) or any frame (inclusive) starts with
// one of the prefixes.
type frameRule struct {
	metric   string
	self     bool
	prefixes []string
}

var frameRules = []frameRule{
	{"attest.ghci_vcycles_per_op", false, []string{"monitor/emc/ghci"}},
	{"monitor.gate_vcycles_per_op", true, []string{"monitor/gate/"}},
	{"monitor.emc_mmu_vcycles_per_op", false, []string{"monitor/emc/mmu", "monitor/emc/ring"}},
	{"monitor.emc_sandbox_vcycles_per_op", false, []string{"monitor/emc/sandbox"}},
	{"monitor.cow_vcycles_per_op", false, []string{"monitor/cow/"}},
	{"kernel.dispatch_vcycles_per_op", true, []string{"kernel/dispatch"}},
	{"kernel.page_fault_vcycles_per_op", false, []string{"kernel/page-fault"}},
	{"cpu.shootdown_vcycles_per_op", false, []string{"cpu/shootdown/"}},
	{"cpu.deliver_vcycles_per_op", true, []string{"cpu/deliver/"}},
	{"cpu.page_walk_vcycles_per_op", true, []string{"cpu/page-walk"}},
	{"libos.user_compute_vcycles_per_op", true, []string{"user/compute"}},
}

func (r frameRule) matches(frames []string) bool {
	if r.self && len(frames) > 0 {
		frames = frames[len(frames)-1:]
	}
	for _, f := range frames {
		for _, p := range r.prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// profileMetrics applies frameRules to folded stacks of the form
// tenant:<t>;phase:<p>[;frame...] and returns cycles per op.
func profileMetrics(stacks map[string]uint64, ops int) map[string]float64 {
	sum := make(map[string]uint64)
	for stack, n := range stacks {
		frames := strings.Split(stack, ";")
		if len(frames) < 2 {
			continue
		}
		for _, r := range frameRules {
			if r.matches(frames[2:]) {
				sum[r.metric] += n
			}
		}
	}
	out := make(map[string]float64, len(frameRules))
	for _, r := range frameRules {
		out[r.metric] = float64(sum[r.metric]) / float64(ops)
	}
	return out
}
