// Command erebor-prof runs the lmbench lat_pagefault experiment of
// erebor-bench -exp pagefault, whose every row is profiled cycle-exactly,
// and reports where every virtual cycle of its synchronous row (the ring
// row with -ring) went as (tenant, phase, mechanism-stack) attributions. A
// serving fleet is profiled by the command that serves it: erebor-serve
// -top/-flame/-pprof.
//
//	erebor-prof -top 20                         # top-20 hottest stacks
//	erebor-prof -vcpus 2 -flame sync.folded     # folded stacks (flamegraph.pl input)
//	erebor-prof -ring -pprof ring.pb            # pprof-compatible protobuf, ring-MMU path
//	erebor-prof -diff sync.folded ring.folded   # per-stack cycle deltas
//
// Profiling never charges the clock: a profiled run is cycle-identical to
// the same run without it, and both exports are byte-deterministic per
// (vcpus, ring). Every profiled run is cross-checked for conservation — the
// sum of stack cycles per (tenant, phase) must equal the metrics registry's
// phase attribution exactly — and fails on any mismatch.
//
// -diff mode runs no simulation: it compares two folded profiles (as written
// by -flame here or by erebor-serve) and prints per-stack deltas sorted
// biggest-win-first, e.g. attributing the async-ring speedup to the vanished
// gate-entry and shootdown-IPI stacks.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/prof"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "erebor-prof: "+format+"\n", args...)
	os.Exit(1)
}

// writeFile streams fn's output into path (stdout when path is "-").
func writeFile(path string, fn func(f *os.File) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadFolded(path string) map[string]uint64 {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	stacks, err := prof.ParseFolded(f)
	if err != nil {
		fail("%s: %v", path, err)
	}
	return stacks
}

func main() {
	vcpus := flag.Int("vcpus", 1, "simulated vCPUs running lat_pagefault")
	ring := flag.Bool("ring", false, "route MMU requests through the async EMC submission ring")
	top := flag.Int("top", 0, "print the K hottest stacks (0 disables)")
	flame := flag.String("flame", "", "write folded stacks to this file (- for stdout; feed to flamegraph.pl / speedscope)")
	pprofPath := flag.String("pprof", "", "write a pprof-compatible protobuf profile to this file (- for stdout)")
	diff := flag.Bool("diff", false, "compare two folded profiles given as positional args (no simulation)")
	flag.Parse()

	if *vcpus < 1 {
		fail("-vcpus must be at least 1, got %d", *vcpus)
	}
	if *diff {
		if flag.NArg() != 2 {
			fail("-diff needs exactly two folded-profile paths (base, new)")
		}
		base, new := loadFolded(flag.Arg(0)), loadFolded(flag.Arg(1))
		if err := prof.WriteDiff(os.Stdout, base, new); err != nil {
			fail("%v", err)
		}
		return
	}
	if *top == 0 && *flame == "" && *pprofPath == "" {
		*top = 20 // bare invocation: show something useful
	}

	// The serve fleet's sandbox faults never ride the submission ring, so the
	// ring's before/after lives in the lat_pagefault workload.
	rows, err := harness.MeasurePagefault(*vcpus)
	if err != nil {
		fail("%v", err)
	}
	row := rows[1]
	if *ring {
		row = rows[2]
	}
	p := row.Profile
	if *flame != "" {
		if err := writeFile(*flame, func(f *os.File) error { return p.WriteFolded(f) }); err != nil {
			fail("flame export: %v", err)
		}
	}
	if *pprofPath != "" {
		if err := writeFile(*pprofPath, func(f *os.File) error { return p.WritePprof(f) }); err != nil {
			fail("pprof export: %v", err)
		}
	}
	if *top > 0 {
		if err := prof.WriteTop(os.Stdout, p.Stacks(), *top); err != nil {
			fail("%v", err)
		}
	}
	fmt.Printf("profiled pagefault (%d vcpus, ring=%v): %d cycles in %d stacks, conserved exactly against phase attribution\n",
		*vcpus, *ring, row.WindowCycles, len(p.Stacks()))
}
