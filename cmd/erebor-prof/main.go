// Command erebor-prof profiles a deterministic serving run cycle-exactly:
// it runs the same fleet erebor-serve would, with the virtual-clock profiler
// attached, and reports where every virtual cycle went as
// (tenant, phase, mechanism-stack) attributions.
//
//	erebor-prof -tenants 64 -top 20                   # top-20 hottest stacks
//	erebor-prof -tenants 64 -flame out.folded         # folded stacks (flamegraph.pl input)
//	erebor-prof -tenants 64 -pprof out.pb             # pprof-compatible protobuf
//	erebor-prof -exp pagefault -ring -flame ring.folded  # profile the ring-MMU path
//	erebor-prof -diff base.folded ring.folded            # per-stack cycle deltas
//
// Profiling never charges the clock: a profiled run is cycle-identical to
// the same run without -top/-flame/-pprof, and both exports are
// byte-deterministic per (seed, vcpus, config). After every profiled run the
// tool cross-checks conservation — the sum of stack cycles per (tenant,
// phase) must equal the metrics registry's phase attribution exactly — and
// exits 2 on any mismatch.
//
// -diff mode runs no simulation: it compares two folded profiles (as written
// by -flame, or erebor-serve-compatible folded text) and prints per-stack
// deltas sorted biggest-win-first, e.g. attributing the async-ring speedup
// to the vanished gate-entry and shootdown-IPI stacks.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/serve"
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
	tenants := flag.Int("tenants", 8, "concurrent tenant slots")
	sessions := flag.Int("sessions", 0, "total sessions to serve (default 2x tenants)")
	seed := flag.Int64("seed", 1, "run seed")
	vcpus := flag.Int("vcpus", 1, "simulated vCPUs serving the fleet")
	memMB := flag.Uint64("mem", 0, "CVM memory in MiB (default sized to the fleet)")
	inputBytes := flag.Int("input", 1024, "per-tenant request bytes")
	modelKB := flag.Int("model", 64, "shared model size in KiB")
	forkpool := flag.Bool("forkpool", false, "serve from copy-on-write forks of a snapshot template (default: cold-boot every sandbox)")
	ring := flag.Bool("ring", false, "with -exp pagefault: route MMU requests through the async EMC submission ring")
	chaos := flag.Float64("chaos", 0, "per-class fault rate on the untrusted hop (0 disables; at most 1/6, as the six classes' rates sum to at most 1)")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-schedule seed (default: -seed)")
	exp := flag.String("exp", "serve", "workload to profile: serve (multi-tenant fleet) or pagefault (lat_pagefault; honors -vcpus/-ring)")
	top := flag.Int("top", 0, "print the K hottest stacks (0 disables)")
	flame := flag.String("flame", "", "write folded stacks to this file (- for stdout; feed to flamegraph.pl / speedscope)")
	pprofPath := flag.String("pprof", "", "write a pprof-compatible protobuf profile to this file (- for stdout)")
	diff := flag.Bool("diff", false, "compare two folded profiles given as positional args (no simulation)")
	flag.Parse()

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

	if *exp == "pagefault" {
		// The serve fleet's sandbox faults never ride the submission ring, so
		// the ring's before/after lives in the lat_pagefault workload — the
		// same one erebor-bench -exp pagefault measures.
		p, cycles, err := harness.ProfilePagefault(*vcpus, *ring)
		if err != nil {
			fail("%v", err)
		}
		emit(p, *flame, *pprofPath, *top)
		fmt.Printf("profiled pagefault (%d vcpus, ring=%v): %d cycles in %d stacks, conserved exactly against phase attribution\n",
			*vcpus, *ring, cycles, len(p.Stacks()))
		return
	}
	if *exp != "serve" {
		fail("unknown -exp %q (want serve or pagefault)", *exp)
	}

	cfg := serve.Config{
		Tenants:    *tenants,
		Sessions:   *sessions,
		Seed:       *seed,
		VCPUs:      *vcpus,
		MemMB:      *memMB,
		InputBytes: *inputBytes,
		ModelBytes: *modelKB << 10,
		ForkPool:   *forkpool,
		Profile:    true,
	}
	if cfg.Sessions == 0 {
		cfg.Sessions = 2 * cfg.Tenants
	}
	if cfg.MemMB == 0 && *tenants >= 64 {
		cfg.MemMB = uint64(256 + *tenants*4)
	}
	if *chaos > 0 {
		cs := *chaosSeed
		if cs == 0 {
			cs = *seed
		}
		plan := faultinject.Uniform(cs, *chaos)
		cfg.Chaos = &plan
	}

	s, err := serve.New(cfg)
	if err != nil {
		fail("%v", err)
	}
	rep, err := s.Run()
	if err != nil {
		fail("%v", err)
	}
	p := s.Profiler()

	// Conservation is the profile's integrity seal: every virtual cycle the
	// run charged must appear in exactly one stack, bucket for bucket.
	if bad := p.CheckConservation(s.World().Met); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "erebor-prof: conservation FAILED:\n")
		for _, line := range bad {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		os.Exit(2)
	}

	emit(p, *flame, *pprofPath, *top)
	fmt.Printf("profiled %d sessions (%d tenants, %d vcpus): %d cycles in %d stacks, conserved exactly against phase attribution\n",
		rep.Completed, rep.Tenants, rep.VCPUs, p.Total(), len(p.Stacks()))
}

// emit writes the requested views of one profile.
func emit(p *prof.Profiler, flame, pprofPath string, top int) {
	if flame != "" {
		if err := writeFile(flame, func(f *os.File) error { return p.WriteFolded(f) }); err != nil {
			fail("flame export: %v", err)
		}
	}
	if pprofPath != "" {
		if err := writeFile(pprofPath, func(f *os.File) error { return p.WritePprof(f) }); err != nil {
			fail("pprof export: %v", err)
		}
	}
	if top > 0 {
		if err := prof.WriteTop(os.Stdout, p.Stacks(), top); err != nil {
			fail("%v", err)
		}
	}
}
