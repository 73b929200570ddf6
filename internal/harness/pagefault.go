package harness

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/workloads/lmbench"
)

// PagefaultRow is one mode of the pagefault before/after comparison: the
// lmbench lat_pagefault workload (64-page file-backed span, faulted in and
// discarded per iteration) under native, synchronous-EMC Erebor, and
// ring-drained Erebor.
type PagefaultRow struct {
	Mode         string
	CyclesPerOp  uint64  // virtual cycles per mmap+fault-span+munmap op
	RunCycles    uint64  // whole-run virtual cycles
	EMCs         uint64  // gate crossings during the run
	EMCPerOp     float64 // gate crossings per op
	EMCPerSecond float64 // gate rate at the simulated clock
	Drains       uint64  // submission-ring drains (ring mode only)
	MeanDepth    float64 // mean ring entries consumed per drain
	IPIsSent     uint64  // shootdown IPIs delivered during the run
	IPIsPerDrain float64 // coalesced IPIs per drain (must be <= P-1)
	// Profile is the run's cycle profile over its attribution window
	// (phase "pagefault", task start and exit included), and WindowCycles
	// is that window's length; the profile's total equals it exactly.
	// Diffing the erebor and erebor+ring profiles attributes the ring's
	// win stack by stack.
	Profile      *prof.Profiler
	WindowCycles uint64
}

// MeasurePagefault runs the lat_pagefault workload three ways at the given
// vCPU count and reports the before/after effect of the async submission
// ring. Every figure derives from the deterministic virtual clock and
// counters: same (seed, P), same bytes. Every row is profiled and must
// conserve, and the Erebor runs sweep the invariant watchdog; any
// non-injected violation is an error, as is a ring run that fails to beat
// the synchronous path or a drain that exceeds one IPI per remote core.
func MeasurePagefault(vcpus int) ([]PagefaultRow, error) {
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
		return nil, fmt.Errorf("pagefault bench missing from the lmbench suite")
	}

	var rows []PagefaultRow
	for _, m := range []struct {
		mode kernel.Mode
		ring bool
	}{{kernel.ModeNative, false}, {kernel.ModeErebor, false}, {kernel.ModeErebor, true}} {
		r, err := runLMBench(bench, m.mode, vcpus, m.ring, true)
		if err != nil {
			return nil, err
		}
		row := PagefaultRow{
			Mode:         r.label,
			CyclesPerOp:  r.runCycles / uint64(bench.Iters),
			RunCycles:    r.runCycles,
			EMCs:         r.emcs,
			EMCPerOp:     float64(r.emcs) / float64(bench.Iters),
			EMCPerSecond: costs.PerSecond(r.emcs, r.runCycles),
			IPIsSent:     r.ipis,
			Profile:      r.profile,
			WindowCycles: r.window,
		}
		met := r.w.Met
		if row.Drains = met.Value(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "committed")); row.Drains > 0 {
			var ops uint64
			for _, n := range met.CounterMap(metrics.FamilyEMCRingOps, "op") {
				ops += n
			}
			row.MeanDepth = float64(ops) / float64(row.Drains)
			sent := met.Value(metrics.FamilyRingCoalescedIPIs, metrics.KV("result", "sent"))
			row.IPIsPerDrain = float64(sent) / float64(row.Drains)
		}
		if row.IPIsPerDrain > float64(vcpus-1) {
			return nil, fmt.Errorf("pagefault (%s): %.2f coalesced IPIs per drain exceeds P-1=%d",
				r.label, row.IPIsPerDrain, vcpus-1)
		}
		rows = append(rows, row)
	}
	sync, ringRow := rows[1], rows[2]
	if ringRow.Drains == 0 {
		return nil, fmt.Errorf("pagefault: ring run never drained the submission ring")
	}
	if ringRow.CyclesPerOp >= sync.CyclesPerOp {
		return nil, fmt.Errorf("pagefault: ring %d cycles/op did not beat synchronous %d",
			ringRow.CyclesPerOp, sync.CyclesPerOp)
	}
	if ringRow.EMCs >= sync.EMCs {
		return nil, fmt.Errorf("pagefault: ring %d gate crossings did not beat synchronous %d",
			ringRow.EMCs, sync.EMCs)
	}
	return rows, nil
}
