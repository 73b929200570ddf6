package harness

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/workloads/lmbench"
)

// PhasePagefault is the pseudo-phase the profiled pagefault run attributes
// its cycles to (this harness has no serving loop driving real phases).
const PhasePagefault = "pagefault"

// ProfilePagefault runs the lat_pagefault workload once under Erebor (with
// or without the async submission ring) with the cycle profiler attached,
// and returns the profile alongside the run's whole-window cycle count.
//
// The attribution window wraps exactly the Schedule call: the context's
// Switch flushes it to FamilyTenantPhaseCycles under (no tenant,
// "pagefault"), the same call the serving loop switches phases with, so
// prof.CheckConservation holds for this harness too. Diffing the ring=false
// and ring=true profiles attributes the ring's win stack by stack: the
// per-fault monitor/gate/entry+exit crossings and cpu/shootdown stacks
// shrink into one monitor/ring/drain per fault.
func ProfilePagefault(vcpus int, ring bool) (*prof.Profiler, uint64, error) {
	if vcpus < 1 {
		vcpus = 1
	}
	var bench *lmbench.Bench
	for _, b := range lmbench.Suite() {
		if b.Name == "pagefault" {
			bench = b
		}
	}
	if bench == nil {
		return nil, 0, fmt.Errorf("pagefault bench missing from the lmbench suite")
	}
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64, VCPUs: vcpus})
	if err != nil {
		return nil, 0, err
	}
	w.Mon.RingMMU = ring
	w.Mon.EnableWatchdog(0)
	p := prof.New(w.Attr)
	w.M.AttachProfiler(p)
	lmbench.Prepare(w.K)
	completed := 0
	t, err := w.K.Spawn("pagefault-prof", mem.OwnerTaskBase, func(e *kernel.Env) {
		completed = bench.Run(e, bench.Iters)
	})
	if err != nil {
		return nil, 0, err
	}
	p.Start()
	w.Attr.Switch(metrics.NoTenant, PhasePagefault, 0)
	w.K.Schedule()
	delta := w.Attr.Switch(metrics.NoTenant, "", 0)
	p.Stop()
	if t.ExitReason != "" {
		return nil, 0, fmt.Errorf("pagefault (profiled): %s", t.ExitReason)
	}
	if err := lmbench.Validate(bench, completed); err != nil {
		return nil, 0, err
	}
	if n := w.Mon.WatchdogNonInjected(); n != 0 {
		return nil, 0, fmt.Errorf("pagefault (profiled): %d non-injected watchdog violations", n)
	}
	if bad := p.CheckConservation(w.Met); len(bad) > 0 {
		return nil, 0, fmt.Errorf("pagefault (profiled): conservation failed: %v", bad)
	}
	return p, delta, nil
}
