// Command erebor-bench regenerates every table and figure of the paper's
// evaluation (§9) on the simulated platform:
//
//	erebor-bench -exp all            # everything
//	erebor-bench -exp table3        # privilege-transition costs
//	erebor-bench -exp table4        # privileged-operation costs
//	erebor-bench -exp fig8          # LMBench overheads
//	erebor-bench -exp fig9          # real-world workload overheads
//	erebor-bench -exp table6        # workload execution statistics
//	erebor-bench -exp fig10         # background server throughput
//	erebor-bench -exp memshare      # memory-sharing savings
//	erebor-bench -exp serve         # multi-tenant serving: fork pool vs cold
//	erebor-bench -exp phases        # per-tenant session-phase cycle breakdown
//	erebor-bench -exp egress        # deny-by-default egress enforcement under chaos
//	erebor-bench -exp fork          # snapshot/fork turnaround: cold vs CoW fork
//	erebor-bench -exp ablations     # design-choice ablations (EMC vs tdcall, batched MMU, #INT gate, padding)
//
// -scale grows the workloads (1 = quick, 4 = closer to paper proportions).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/asterisc-release/erebor-go/internal/critpath"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/serve"
	"github.com/asterisc-release/erebor-go/internal/trace"
	"github.com/asterisc-release/erebor-go/internal/workloads"
	"github.com/asterisc-release/erebor-go/internal/workloads/graph"
	"github.com/asterisc-release/erebor-go/internal/workloads/ids"
	"github.com/asterisc-release/erebor-go/internal/workloads/imgproc"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
	"github.com/asterisc-release/erebor-go/internal/workloads/retrieval"
)

// traceBench attaches the flight recorder to every fig9/table6 scenario
// run and emits per-span latency summaries (-trace flag).
var traceBench bool

func main() {
	exp := flag.String("exp", "all", "experiment: table3|table4|fig8|fig9|table6|fig10|memshare|serve|phases|egress|pagefault|fork|ablations|all")
	scale := flag.Int("scale", 1, "workload scale factor (1 = quick)")
	vcpus := flag.Int("vcpus", 1, "simulated vCPUs for the serve fork/cold comparison (the vCPU sweep always runs P∈{1,2,4})")
	flag.BoolVar(&traceBench, "trace", false,
		"attach the flight recorder to scenario runs and print p50/p99 span summaries as JSON")
	jsonPath := flag.String("json", "", "write the experiment's machine-readable result (BenchResult JSON) to this file (- for stdout; needs a single -exp)")
	baselinePath := flag.String("baseline", "", "compare the result against this committed BENCH_<exp>.json and exit 3 on any regression (needs a single -exp)")
	tolerance := flag.Float64("tolerance", 0.05, "relative regression tolerance for the -baseline gate")
	flag.Parse()

	if *vcpus < 1 {
		fmt.Fprintf(os.Stderr, "erebor-bench: -vcpus must be at least 1, got %d\n", *vcpus)
		os.Exit(1)
	}
	if *jsonPath != "" || *baselinePath != "" {
		if *exp == "all" {
			fmt.Fprintf(os.Stderr, "erebor-bench: -json/-baseline need a single -exp (baselines are per experiment)\n")
			os.Exit(1)
		}
		collector = &BenchResult{Experiment: *exp, Scale: *scale, VCPUs: *vcpus}
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", strings.ToUpper(name))
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table3", table3)
	run("table4", table4)
	run("fig8", fig8)
	var sets []*harness.ScenarioSet
	run("fig9", func() error {
		var err error
		sets, err = fig9(*scale)
		return err
	})
	run("table6", func() error {
		if sets == nil {
			var err error
			sets, err = runSets(*scale)
			if err != nil {
				return err
			}
		}
		return table6(sets)
	})
	run("fig10", fig10)
	run("memshare", func() error { return memshare(*scale) })
	run("serve", func() error { return serveBench(*scale, *vcpus) })
	run("phases", func() error { return phasesBench(*scale, *vcpus) })
	run("egress", func() error { return egressBench(*scale, *vcpus) })
	run("pagefault", func() error { return pagefaultBench(*vcpus) })
	run("fork", func() error { return forkBench(*scale, *vcpus) })
	run("ablations", ablations)

	if traceBench && sets != nil {
		if err := printTraceSummaries(sets); err != nil {
			fmt.Fprintf(os.Stderr, "trace summaries: %v\n", err)
			os.Exit(1)
		}
	}

	if collector != nil {
		if *jsonPath != "" {
			if err := writeBenchJSON(collector, *jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "erebor-bench: -json: %v\n", err)
				os.Exit(1)
			}
		}
		if *baselinePath != "" {
			failures, notes, err := compareBaseline(collector, *baselinePath, *tolerance)
			if err != nil {
				fmt.Fprintf(os.Stderr, "erebor-bench: -baseline: %v\n", err)
				os.Exit(1)
			}
			for _, n := range notes {
				fmt.Printf("baseline note: %s\n", n)
			}
			if len(failures) > 0 {
				fmt.Fprintf(os.Stderr, "erebor-bench: %s regressed against %s:\n", *exp, *baselinePath)
				for _, f := range failures {
					fmt.Fprintf(os.Stderr, "  %s\n", f)
				}
				fmt.Fprintf(os.Stderr, "attribute cycle regressions with: erebor-serve <fleet flags> -flame new.folded for fleets (erebor-prof [-ring] -flame new.folded for lat_pagefault), then erebor-prof -diff base.folded new.folded\n")
				os.Exit(3)
			}
			fmt.Printf("baseline gate: %s within %.1f%% of %s\n", *exp, *tolerance*100, *baselinePath)
		}
	}
}

func ablations() error {
	a, err := harness.MeasureAblationEMCvsTDCall()
	if err != nil {
		return err
	}
	fmt.Printf("EMC vs hypercall monitor:  PTE update via EMC %d cycles, via tdcall %d cycles (%.2fx)\n",
		a.PTEUpdateEMC, a.PTEUpdateTDCall, float64(a.PTEUpdateTDCall)/float64(a.PTEUpdateEMC))
	record("ablations/pte_update/emc_cycles", float64(a.PTEUpdateEMC), "lower")
	record("ablations/pte_update/tdcall_cycles", float64(a.PTEUpdateTDCall), "lower")
	bm, err := harness.MeasureAblationBatchedMMU()
	if err != nil {
		return err
	}
	fmt.Printf("Batched MMU updates:       fork %d -> %d cycles (%.2fx speedup)\n",
		bm.ForkUnbatched, bm.ForkBatched, bm.Speedup)
	record("ablations/batched_mmu/unbatched_fork_cycles", float64(bm.ForkUnbatched), "lower")
	record("ablations/batched_mmu/batched_fork_cycles", float64(bm.ForkBatched), "lower")
	plain, pre, err := harness.MeasureAblationInterruptGate()
	if err != nil {
		return err
	}
	fmt.Printf("#INT gate under preemption: EMC %d -> %d cycles (+%d)\n", plain, pre, pre-plain)
	record("ablations/int_gate/plain_cycles", float64(plain), "lower")
	record("ablations/int_gate/preempted_cycles", float64(pre), "lower")
	for _, p := range harness.MeasureAblationPadding(300) {
		fmt.Printf("Output padding block %5d: wire %5d bytes for 300-byte result (%.2fx)\n",
			p.Block, p.WireBytes, p.Expansion)
		record(fmt.Sprintf("ablations/padding/block=%d/wire_bytes", p.Block), float64(p.WireBytes), "exact")
	}
	return nil
}

func table3() error {
	rows, err := harness.MeasureTable3()
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %8s %8s      (Table 3: round-trip privilege transitions)\n", "Call", "#Cycle", "Times")
	for _, r := range rows {
		fmt.Printf("%-10s %8d %7.2fx\n", r.Name, r.Cycles, r.RelEMC)
		record("table3/"+strings.ToLower(r.Name)+"/cycles", float64(r.Cycles), "exact")
	}
	return nil
}

func table4() error {
	rows, err := harness.MeasureTable4()
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %10s %14s      (Table 4: privileged operations, cycles)\n", "Op", "Native", "Erebor")
	for _, r := range rows {
		fmt.Printf("%-6s %10d %8d (%5.2fx)\n", r.Name, r.Native, r.Erebor, r.Ratio())
		op := "table4/" + strings.ToLower(r.Name)
		record(op+"/native_cycles", float64(r.Native), "exact")
		record(op+"/erebor_cycles", float64(r.Erebor), "exact")
	}
	return nil
}

func fig8() error {
	rows, err := harness.RunFig8()
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %10s %9s %8s %8s   (Fig 8: LMBench)\n",
		"Bench", "Native", "Erebor", "Overhead", "EMC/op", "EMC/s")
	for _, r := range rows {
		fmt.Printf("%-10s %10d %10d %8.1f%% %8.1f %7.2fM\n",
			r.Name, r.NativeCycles, r.EreborCycles, r.Overhead*100, r.EMCPerOp, r.EMCPerSecond/1e6)
		record("fig8/"+r.Name+"/native_cycles_per_op", float64(r.NativeCycles), "lower")
		record("fig8/"+r.Name+"/erebor_cycles_per_op", float64(r.EreborCycles), "lower")
		record("fig8/"+r.Name+"/emcs_per_op", r.EMCPerOp, "exact")
	}
	return nil
}

func suite(scale int) []workloads.Workload {
	return []workloads.Workload{
		llm.New(scale), imgproc.New(scale), retrieval.New(scale),
		graph.New(scale), ids.New(scale),
	}
}

func runSets(scale int) ([]*harness.ScenarioSet, error) {
	opt := harness.DefaultScenarioOptions()
	opt.Trace = traceBench
	var sets []*harness.ScenarioSet
	for _, wl := range suite(scale) {
		s, err := harness.RunScenarioSet(wl, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name(), err)
		}
		sets = append(sets, s)
	}
	return sets, nil
}

// traceSummaryRow is one scenario's latency digest in the -trace JSON.
type traceSummaryRow struct {
	Workload string              `json:"workload"`
	Config   string              `json:"config"`
	Spans    []trace.SpanSummary `json:"spans"`
}

// printTraceSummaries emits the recorder's per-span p50/p99 digests
// (cycles and µs at the simulated 2.1 GHz) for every traced scenario.
func printTraceSummaries(sets []*harness.ScenarioSet) error {
	var rows []traceSummaryRow
	for _, s := range sets {
		for _, r := range []*harness.ScenarioResult{s.Native, s.LibOS, s.Erebor} {
			if r == nil || r.Hists == nil {
				continue
			}
			rows = append(rows, traceSummaryRow{
				Workload: r.Workload, Config: string(r.Config),
				Spans: trace.Summarize(r.Hists),
			})
		}
	}
	if rows == nil {
		return nil
	}
	fmt.Println("---- trace span summaries (JSON) ----")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func fig9(scale int) ([]*harness.ScenarioSet, error) {
	sets, err := runSets(scale)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-10s %10s %10s %10s %10s   (Fig 9: overhead vs native)\n",
		"Program", "LibOS", "+MMU", "+Exit", "Erebor")
	var overheads []float64
	for _, s := range sets {
		r := s.Fig9()
		fmt.Printf("%-10s %9.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
			r.Program, r.LibOSOnly*100, r.LibOSMMU*100, r.LibOSExit*100, r.Full*100)
		overheads = append(overheads, r.Full)
		record("fig9/"+r.Program+"/native_run_cycles", float64(s.Native.RunCycles), "lower")
		record("fig9/"+r.Program+"/libos_run_cycles", float64(s.LibOS.RunCycles), "lower")
		record("fig9/"+r.Program+"/erebor_run_cycles", float64(s.Erebor.RunCycles), "lower")
	}
	fmt.Printf("%-10s %42.2f%%  (paper: 8.1%%)\n", "geomean", harness.Geomean(overheads)*100)
	return sets, nil
}

func table6(sets []*harness.ScenarioSet) error {
	fmt.Printf("%-10s %7s %7s %7s %7s %9s %8s %8s %8s %8s   (Table 6)\n",
		"Program", "#PF/s", "#Timer", "#VE/s", "Total", "EMC/s", "Time(s)", "Conf.MB", "Com.MB", "Init.OH")
	for _, s := range sets {
		r := s.Table6()
		fmt.Printf("%-10s %7.0f %7.0f %7.0f %7.0f %9.0f %8.4f %8.1f %8.1f %7.1f%%\n",
			r.Program, r.PFRate, r.TimerRate, r.VERate, r.TotalRate,
			r.EMCRate, r.TimeSec, r.ConfinedMB, r.CommonMB, r.InitOverhead*100)
		e, prog := s.Erebor, "table6/"+r.Program
		record(prog+"/page_faults", float64(e.PageFaults), "exact")
		record(prog+"/timer_ticks", float64(e.TimerTicks), "exact")
		record(prog+"/ve_exits", float64(e.VEExits), "exact")
		record(prog+"/emcs", float64(e.EMCs), "exact")
		record(prog+"/confined_bytes", float64(e.ConfinedBytes), "exact")
		record(prog+"/common_bytes", float64(e.CommonBytes), "exact")
		record(prog+"/run_cycles", float64(e.RunCycles), "lower")
	}
	return nil
}

func fig10() error {
	rows, err := harness.RunFig10()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %10s %12s %12s %9s   (Fig 10: background servers)\n",
		"Server", "FileSize", "Native MB/s", "Erebor MB/s", "Relative")
	for _, r := range rows {
		fmt.Printf("%-8s %10d %12.1f %12.1f %9.3f\n",
			r.Server, r.FileSize, r.NativeMBs, r.EreborMBs, r.Relative)
		pt := fmt.Sprintf("fig10/%s/size=%d", r.Server, r.FileSize)
		record(pt+"/native_mbs", r.NativeMBs, "higher")
		record(pt+"/erebor_mbs", r.EreborMBs, "higher")
	}
	return nil
}

func memshare(scale int) error {
	for _, n := range []int{1, 2, 4, 8} {
		res, err := harness.RunMemShare(llm.New(scale), n)
		if err != nil {
			return err
		}
		fmt.Printf("llama x%-2d shared=%7.1fMB replicated=%7.1fMB savings/sandbox=%5.1f%%\n",
			n, float64(res.SharedBytes)/(1<<20), float64(res.ReplicatedBytes)/(1<<20),
			res.SavingsPerSandbox*100)
		record(fmt.Sprintf("memshare/n=%d/shared_bytes", n), float64(res.SharedBytes), "exact")
		record(fmt.Sprintf("memshare/n=%d/replicated_bytes", n), float64(res.ReplicatedBytes), "exact")
	}
	return nil
}

// serveBench compares copy-on-write forks from a snapshot template against
// cold per-session sandbox creation on an 8-tenant fleet, on vcpus
// simulated cores, then runs the vCPU sweep. Runs are deterministic: the
// same (seed, vcpus) reproduces the same report bytes.
func serveBench(scale, vcpus int) error {
	const n = 8
	sessions := 2 * n * scale
	fmt.Printf("%-8s %-5s %10s %14s %12s %9s      (multi-tenant serving, fork pool vs cold create, %d vCPU)\n",
		"tenants", "mode", "sessions", "cycles/sess", "sessions/s", "forks", vcpus)
	for _, fork := range []bool{true, false} {
		rep, err := serve.Run(serve.Config{
			Tenants: n, Sessions: sessions, Seed: 1, MemMB: 256, ForkPool: fork, VCPUs: vcpus,
		})
		if err != nil {
			return err
		}
		mode := "cold"
		if fork {
			mode = "fork"
		}
		if rep.Completed != sessions {
			return fmt.Errorf("serve n=%d %s: %d/%d sessions completed (%d failed)",
				n, mode, rep.Completed, sessions, rep.Failed)
		}
		fmt.Printf("%-8d %-5s %10d %14d %12.1f %9d\n",
			n, mode, rep.Completed, rep.CyclesPerSession, rep.SessionsPerSec, rep.Forks)
		record(fmt.Sprintf("serve/n=%d/%s/cycles_per_session", n, mode), float64(rep.CyclesPerSession), "lower")
		record(fmt.Sprintf("serve/n=%d/%s/completed", n, mode), float64(rep.Completed), "exact")
	}
	return serveVCPUSweep(scale)
}

// phasesBench serves a fork-pool fleet with the invariant watchdog on and
// prints the per-tenant causal cycle breakdown: every virtual cycle of the
// run is attributed to exactly one (tenant, phase) pair, so the table's
// grand total reproduces the serial elapsed cycles and the difference
// between tenants is real scheduling skew, not accounting noise.
func phasesBench(scale, vcpus int) error {
	const tenants = 8
	sessions := 2 * tenants * scale
	s, err := serve.New(serve.Config{
		Tenants: tenants, Sessions: sessions, Seed: 1, VCPUs: vcpus, ForkPool: true,
		Watchdog: true, Trace: true,
	})
	if err != nil {
		return err
	}
	start := s.World().M.Clock.Now()
	rep, err := s.Run()
	if err != nil {
		return err
	}
	elapsed := s.World().M.Clock.Now() - start
	rows := s.PhaseBreakdown()
	serve.WritePhaseTable(os.Stdout, rows)
	// Critical path per phase, reconstructed from the run's span forest
	// (shared work + busiest core, PR 4's overlap rule).
	rec := s.World().Rec
	forest, cerr := critpath.Build(rec.Snapshot(), rec.Dropped())
	if cerr != nil {
		fmt.Printf("\ncritical path: %v\n", cerr)
	}
	fmt.Printf("\ncritical path (per phase):\n")
	critpath.Analyze(forest).WriteText(os.Stdout)
	var attributed uint64
	for _, r := range rows {
		attributed += r.Total
	}
	if attributed != elapsed {
		return fmt.Errorf("phase attribution leak: %d cycles attributed, %d elapsed", attributed, elapsed)
	}
	if n := s.World().Mon.WatchdogNonInjected(); n > 0 {
		return fmt.Errorf("watchdog: %d non-injected invariant violations", n)
	}
	fmt.Printf("\nconservation: %d attributed == %d elapsed; sessions %d ok, %d failed; watchdog %d sweeps, healthy\n",
		attributed, elapsed, rep.Completed, rep.Failed, s.World().Mon.WatchdogSweeps())
	record("phases/attributed_cycles", float64(attributed), "lower")
	record("phases/completed", float64(rep.Completed), "exact")
	record("phases/failed", float64(rep.Failed), "exact")
	return nil
}

// egressBench serves a fork-pool fleet under deny-by-default egress enforcement
// and sweeps the proxy-edge fault rate (frame-redirect + policy-load
// corruption). The exfil column must stay zero at every rate: no frame ever
// reaches a non-allowlisted destination, faults only convert would-be allows
// into typed denials. The watchdog sweeps I8 throughout.
func egressBench(scale, vcpus int) error {
	const tenants = 8
	sessions := 2 * tenants * scale
	fmt.Printf("%-10s %9s %9s %9s %9s %8s      (deny-by-default egress, %d-tenant fleet, %d vCPU)\n",
		"proxy-rate", "sessions", "allowed", "denied", "exfil", "I8", tenants, vcpus)
	for _, rate := range []float64{0, 0.05, 0.20} {
		cfg := serve.Config{
			Tenants: tenants, Sessions: sessions, Seed: 1, VCPUs: vcpus, ForkPool: true,
			Watchdog: true, Egress: serve.DefaultEgressSpec(),
		}
		if rate > 0 {
			plan := faultinject.Uniform(1, 0).WithProxyFaults(rate, rate/2)
			cfg.Chaos = &plan
		}
		s, err := serve.New(cfg)
		if err != nil {
			return err
		}
		rep, err := s.Run()
		if err != nil {
			return err
		}
		if rep.Completed+rep.Failed != sessions {
			return fmt.Errorf("egress rate=%.2f: %d/%d sessions accounted", rate, rep.Completed+rep.Failed, sessions)
		}
		exfil := s.ServiceDeliveries()[serve.ExfilDest.String()]
		if exfil != 0 {
			return fmt.Errorf("egress rate=%.2f: %d frames exfiltrated past the allowlist", rate, exfil)
		}
		if n := s.World().Mon.WatchdogNonInjected(); n > 0 {
			return fmt.Errorf("egress rate=%.2f: %d non-injected invariant violations", rate, n)
		}
		if rep.EgressDenied != rep.EgressDenialsSeen+rep.EgressDenialDrops {
			return fmt.Errorf("egress rate=%.2f: denial accounting leak (%d denied, %d seen + %d dropped)",
				rate, rep.EgressDenied, rep.EgressDenialsSeen, rep.EgressDenialDrops)
		}
		fmt.Printf("%-10.2f %9d %9d %9d %9d %8s\n",
			rate, rep.Completed, rep.EgressAllowed, rep.EgressDenied, exfil, "clean")
		record(fmt.Sprintf("egress/rate=%.2f/allowed", rate), float64(rep.EgressAllowed), "exact")
		record(fmt.Sprintf("egress/rate=%.2f/denied", rate), float64(rep.EgressDenied), "exact")
		record(fmt.Sprintf("egress/rate=%.2f/exfil", rate), float64(exfil), "exact")
	}
	return nil
}

// pagefaultBench is the submission-ring before/after: the lmbench
// lat_pagefault workload (64-page file-backed span, faulted in and torn
// down per op) under native, synchronous-EMC Erebor, and ring-drained
// Erebor. The harness hard-fails if the ring does not reduce both gate
// crossings and cycles/op, if any drain exceeds one IPI per remote core,
// or if the continuous watchdog observes a non-injected violation.
func pagefaultBench(vcpus int) error {
	rows, err := harness.MeasurePagefault(vcpus)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %12s %9s %10s %12s %8s %7s %10s      (lat_pagefault, %d vCPU)\n",
		"mode", "cycles/op", "EMC/op", "EMC/s", "drains", "depth", "IPIs", "IPI/drain", vcpus)
	for _, r := range rows {
		fmt.Printf("%-12s %12d %9.1f %10.0f %12d %8.1f %7d %10.2f\n",
			r.Mode, r.CyclesPerOp, r.EMCPerOp, r.EMCPerSecond,
			r.Drains, r.MeanDepth, r.IPIsSent, r.IPIsPerDrain)
		record("pagefault/"+r.Mode+"/cycles_per_op", float64(r.CyclesPerOp), "lower")
		record("pagefault/"+r.Mode+"/emcs", float64(r.EMCs), "lower")
		record("pagefault/"+r.Mode+"/ipis_sent", float64(r.IPIsSent), "lower")
	}
	sync, ring := rows[1], rows[2]
	fmt.Printf("ring effect: %d -> %d cycles/op (%.2fx), %d -> %d gate crossings\n",
		sync.CyclesPerOp, ring.CyclesPerOp,
		float64(sync.CyclesPerOp)/float64(ring.CyclesPerOp), sync.EMCs, ring.EMCs)
	return nil
}

// forkBench compares the two turnover modes — cold rebuild and
// copy-on-write fork from a snapshot template — on the figure the fork pool
// exists to shrink: turnaround-to-first-compute, the virtual cycles a
// tenant waits between the previous session retiring and the worker's first
// compute step on their request. MeasureFork hard-fails on any incomplete
// session, any non-injected watchdog violation, a template whose refcounts
// fail to return to baseline, or a fork turnaround that is not under a
// fifth of cold's.
func forkBench(scale, vcpus int) error {
	rows, err := serve.MeasureFork(scale, vcpus)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %16s %14s %14s %9s %7s %10s %10s      (turnaround to first compute, %d vCPU)\n",
		"mode", "firstcompute/s.", "setup cycles", "cycles/sess", "sessions", "forks", "cow-breaks", "tmpl-pages", vcpus)
	for _, r := range rows {
		fmt.Printf("%-6s %16d %14d %14d %9d %7d %10d %10d\n",
			r.Mode, r.FirstComputeCycles, r.SetupCycles, r.CyclesPerSession,
			r.Completed, r.Forks, r.CowBreaks, r.TemplatePages)
		record("fork/"+r.Mode+"/first_compute_cycles", float64(r.FirstComputeCycles), "lower")
		record("fork/"+r.Mode+"/setup_cycles", float64(r.SetupCycles), "lower")
		record("fork/"+r.Mode+"/cycles_per_session", float64(r.CyclesPerSession), "lower")
		record("fork/"+r.Mode+"/completed", float64(r.Completed), "exact")
	}
	cold, fork := rows[0], rows[1]
	fmt.Printf("fork effect: cold %d -> fork %d cycles to first compute (%.2fx vs cold)\n",
		cold.FirstComputeCycles, fork.FirstComputeCycles,
		float64(cold.FirstComputeCycles)/float64(fork.FirstComputeCycles))
	return nil
}

// serveVCPUSweep runs the 64-tenant fork-pool fleet at P ∈ {1,2,4} vCPUs:
// slots spread across cores deterministically, and the wall-clock report
// shows per-core work overlapping (cycles/session drops as P grows).
func serveVCPUSweep(scale int) error {
	const tenants = 64
	sessions := 2 * tenants * scale
	memMB := uint64(256 + tenants*4)
	fmt.Printf("\n%-8s %-6s %10s %14s %12s      (vCPU sweep, 64-tenant fork-pool fleet)\n",
		"tenants", "vcpus", "sessions", "cycles/sess", "sessions/s")
	var perSession []uint64
	for _, p := range []int{1, 2, 4} {
		rep, err := serve.Run(serve.Config{
			Tenants: tenants, Sessions: sessions, Seed: 1, MemMB: memMB, VCPUs: p,
			ForkPool: true,
		})
		if err != nil {
			return err
		}
		if rep.Completed != sessions {
			return fmt.Errorf("serve vcpus=%d: %d/%d sessions completed (%d failed)",
				p, rep.Completed, sessions, rep.Failed)
		}
		perSession = append(perSession, rep.CyclesPerSession)
		fmt.Printf("%-8d %-6d %10d %14d %12.1f\n",
			tenants, p, rep.Completed, rep.CyclesPerSession, rep.SessionsPerSec)
		record(fmt.Sprintf("serve/sweep/vcpus=%d/cycles_per_session", p), float64(rep.CyclesPerSession), "lower")
	}
	if last, first := perSession[len(perSession)-1], perSession[0]; last >= first {
		return fmt.Errorf("serve vCPU sweep: P=4 cycles/session (%d) not below P=1 (%d)", last, first)
	}
	return nil
}
