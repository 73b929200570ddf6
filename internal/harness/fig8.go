package harness

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/workloads/lmbench"
)

// LMBenchResult is one bar of Fig 8.
type LMBenchResult struct {
	Name            string
	NativeCycles    uint64 // per operation
	EreborCycles    uint64 // per operation
	Overhead        float64
	EMCPerOp        float64
	EMCPerSecond    float64 // EMC rate during the Erebor run
	EreborRunCycles uint64
}

// RunFig8 executes the LMBench suite under both modes and returns the
// Erebor/Native overhead per benchmark.
func RunFig8() ([]LMBenchResult, error) {
	var out []LMBenchResult
	for _, b := range lmbench.Suite() {
		nat, err := runLMBench(b, kernel.ModeNative, 1, false, false)
		if err != nil {
			return nil, err
		}
		ere, err := runLMBench(b, kernel.ModeErebor, 1, false, false)
		if err != nil {
			return nil, err
		}
		natOp, ereOp := nat.runCycles/uint64(b.Iters), ere.runCycles/uint64(b.Iters)
		out = append(out, LMBenchResult{
			Name:            b.Name,
			NativeCycles:    natOp,
			EreborCycles:    ereOp,
			Overhead:        float64(ereOp)/float64(natOp) - 1,
			EMCPerOp:        float64(ere.emcs) / float64(b.Iters),
			EMCPerSecond:    costs.PerSecond(ere.emcs, ere.runCycles),
			EreborRunCycles: ere.runCycles,
		})
	}
	return out, nil
}

// lmRun is one lmbench run, labelled native, erebor or erebor+ring.
// runCycles, emcs and ipis are read inside the task around the bench's
// Run; window is the attribution window around Schedule, which also covers
// the task's start and exit.
type lmRun struct {
	w                     *World
	label                 string
	runCycles, emcs, ipis uint64
	window                uint64
	profile               *prof.Profiler // nil unless profiled
}

// runLMBench is the one lmbench runner behind Fig 8, the pagefault
// experiment and erebor-prof. It boots a 64 MB world on vcpus cores; an
// Erebor world sets RingMMU and sweeps the invariant watchdog at every
// phase boundary. The task is spawned (its address space created) before
// the attribution window named b.Name opens around Schedule, and with
// profile set the cycle profiler records exactly that window. The run
// fails on an unclean exit, a short run, a non-injected watchdog violation
// or a profile that does not conserve against the window.
func runLMBench(b *lmbench.Bench, mode kernel.Mode, vcpus int, ring, profile bool) (*lmRun, error) {
	w, err := NewWorld(WorldConfig{Mode: mode, MemMB: 64, VCPUs: vcpus})
	if err != nil {
		return nil, err
	}
	r := &lmRun{w: w, label: mode.String()}
	if w.Mon != nil {
		w.Mon.RingMMU = ring
		w.Mon.EnableWatchdog(0)
		if ring {
			r.label += "+ring"
		}
	}
	if profile {
		r.profile = prof.New(w.Attr)
		w.M.AttachProfiler(r.profile)
	}
	lmbench.Prepare(w.K)
	completed := 0
	t, err := w.K.Spawn("lmbench-"+b.Name, mem.OwnerTaskBase, func(e *kernel.Env) {
		var emcStart uint64
		if w.Mon != nil {
			emcStart = w.Mon.Stats.EMCs
		}
		ipiStart, start := w.M.IPIsSent, w.M.Clock.Now()
		completed = b.Run(e, b.Iters)
		r.runCycles = w.M.Clock.Now() - start
		r.ipis = w.M.IPIsSent - ipiStart
		if w.Mon != nil {
			r.emcs = w.Mon.Stats.EMCs - emcStart
		}
	})
	if err != nil {
		return nil, err
	}
	r.profile.Start()
	w.Attr.Switch(metrics.NoTenant, b.Name, 0)
	w.K.Schedule()
	r.window = w.Attr.Switch(metrics.NoTenant, "", 0)
	r.profile.Stop()
	if t.ExitReason != "" {
		return nil, fmt.Errorf("lmbench %s (%s): %s", b.Name, r.label, t.ExitReason)
	}
	if err := lmbench.Validate(b, completed); err != nil {
		return nil, err
	}
	if w.Mon != nil {
		if n := w.Mon.WatchdogNonInjected(); n != 0 {
			return nil, fmt.Errorf("lmbench %s (%s): %d non-injected watchdog violations", b.Name, r.label, n)
		}
	}
	if profile {
		if bad := r.profile.CheckConservation(w.Met); len(bad) > 0 {
			return nil, fmt.Errorf("lmbench %s (%s): conservation failed: %v", b.Name, r.label, bad)
		}
	}
	return r, nil
}
