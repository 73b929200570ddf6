package serve

import "fmt"

// ForkRow is one turnover mode of the cold / fork comparison: how many
// virtual cycles a tenant waits between the previous session retiring and
// the worker's first compute step on their request.
type ForkRow struct {
	Mode string
	// FirstComputeCycles is the mean turnaround-to-first-compute window over
	// completed sessions — the headline figure.
	FirstComputeCycles uint64
	// SetupCycles is the time spent strictly inside the mode's setup
	// primitive: cold container launches or fork instantiations (whole-run
	// total).
	SetupCycles      uint64
	CyclesPerSession uint64
	Completed        int
	Forks            uint64
	CowBreaks        uint64
	TemplatePages    uint64
}

// MeasureFork serves the same seeded fleet two ways — cold rebuild every
// turnover, and copy-on-write forking from a snapshot template — and
// reports the turnaround comparison. scale multiplies the session count
// (0 = 1). Every figure derives from the deterministic virtual clock: same
// (seed, vcpus, scale), same rows, byte for byte.
//
// Hard gates, enforced here so CI fails loudly rather than reporting a
// regression as data: every session must complete, the invariant watchdog
// (I1-I9, swept continuously) must observe nothing non-injected, the fork
// template must release cleanly after the run — refcounts back at baseline
// — and fork turnaround must come in under a fifth of cold's.
func MeasureFork(scale, vcpus int) ([]ForkRow, error) {
	if scale < 1 {
		scale = 1
	}
	if vcpus < 1 {
		vcpus = 1
	}
	base := Config{
		Tenants:  4,
		Sessions: 4 * (2 + scale),
		Seed:     11,
		VCPUs:    vcpus,
		// A serving-sized heap: big enough that the turnover mechanism
		// (declare + zero vs O(pages touched) CoW breaks) dominates the
		// fixed per-session handshake inside the measured window.
		HeapPages:  2048,
		InputBytes: 1024,
		ModelBytes: 64 << 10,
		Watchdog:   true,
	}

	run := func(mode string, fork bool) (ForkRow, error) {
		cfg := base
		cfg.ForkPool = fork
		row := ForkRow{Mode: mode}
		s, err := New(cfg)
		if err != nil {
			return row, fmt.Errorf("fork bench (%s): %w", mode, err)
		}
		rep, err := s.Run()
		if err != nil {
			return row, fmt.Errorf("fork bench (%s): %w", mode, err)
		}
		if rep.Failed != 0 || rep.Completed != cfg.Sessions {
			return row, fmt.Errorf("fork bench (%s): %d/%d sessions completed, %d failed",
				mode, rep.Completed, cfg.Sessions, rep.Failed)
		}
		if n := s.World().Mon.WatchdogNonInjected(); n != 0 {
			return row, fmt.Errorf("fork bench (%s): %d non-injected watchdog violations", mode, n)
		}
		if vs := s.World().Mon.Audit(); len(vs) != 0 {
			return row, fmt.Errorf("fork bench (%s): audit violations: %v", mode, vs)
		}
		// Refcount gate: with every fork dead the template must destroy
		// cleanly — EMCDestroyTemplate refuses on a live fork, and the audit
		// re-run catches any frame whose refcount failed to return to
		// baseline before the frames were freed.
		if err := s.ReleaseTemplate(); err != nil {
			return row, fmt.Errorf("fork bench (%s): template release: %w", mode, err)
		}
		if vs := s.World().Mon.Audit(); len(vs) != 0 {
			return row, fmt.Errorf("fork bench (%s): audit after template release: %v", mode, vs)
		}
		row.FirstComputeCycles = rep.FirstComputeCycles
		row.CyclesPerSession = rep.CyclesPerSession
		row.Completed = rep.Completed
		row.Forks = rep.Forks
		row.CowBreaks = rep.CowBreaks
		row.TemplatePages = rep.TemplatePages
		row.SetupCycles = rep.LaunchCycles
		if fork {
			row.SetupCycles = rep.ForkCycles
		}
		return row, nil
	}

	cold, err := run("cold", false)
	if err != nil {
		return nil, err
	}
	forkRow, err := run("fork", true)
	if err != nil {
		return nil, err
	}
	if forkRow.Forks == 0 || forkRow.CowBreaks == 0 {
		return nil, fmt.Errorf("fork bench: fork run forked %d sandboxes with %d CoW breaks; expected both > 0",
			forkRow.Forks, forkRow.CowBreaks)
	}
	if forkRow.FirstComputeCycles >= cold.FirstComputeCycles/5 {
		return nil, fmt.Errorf("fork bench: fork turnaround %d is not under a fifth of cold's %d",
			forkRow.FirstComputeCycles, cold.FirstComputeCycles)
	}
	return []ForkRow{cold, forkRow}, nil
}
