// Command erebor-serve runs the multi-tenant session server on the
// simulated Erebor platform: N concurrent remote tenants, each handled in
// its own EREBOR-SANDBOX, all sharing one physical copy of the model bytes
// through a common region. Every session gets a fresh sandbox: a cold boot
// by default, or a copy-on-write fork of a snapshot template with
// -forkpool.
//
// It is the one command that builds a serving fleet, so every view of a
// run comes from the same run: the report, OpenMetrics, the watchdog,
// egress and SLO logs, the Chrome trace, the critical path and the cycle
// profile.
//
//	erebor-serve -tenants 64 -sessions 256            # cold sandbox per session
//	erebor-serve -tenants 64 -sessions 256 -forkpool  # CoW forks from a snapshot template
//	erebor-serve -tenants 64 -chaos 0.05              # fault-injected fleet
//	erebor-serve -tenants 64 -vcpus 4                 # SMP fleet, 4 cores
//	erebor-serve -tenants 8 -trace trace.json         # Chrome trace export
//	erebor-serve -tenants 8 -trace t.json -tenant 3   # one tenant's span trees
//	erebor-serve -tenants 8 -critical-path -          # fleet critical-path breakdown
//	erebor-serve -tenants 8 -quiet -top 20            # top-20 hottest cycle stacks
//	erebor-serve -tenants 8 -flame f.folded -pprof f.pb  # folded stacks + pprof profile
//	erebor-serve -tenants 8 -watchdog -phases         # invariant watchdog + phase table
//	erebor-serve -tenants 8 -metrics m.txt -events e.jsonl
//	erebor-serve -tenants 8 -watchdog -statusz :8080  # post-run introspection endpoint
//	erebor-serve -tenants 8 -egress-policy default    # deny-by-default egress enforcement
//	erebor-serve -tenants 8 -egress-policy default -chaos-proxy 0.03 -egress-log d.jsonl
//	erebor-serve -tenants 64 -slo default             # deterministic SLO engine
//	erebor-serve -tenants 64 -slo default -chaos-latency 0.3 -slo-report slo.jsonl
//
// Runs are deterministic: the same flags and seed reproduce the same report
// bytes and the same bytes in every view. Tracing and profiling never charge
// the clock, so asking for more views never moves a cycle. The report is
// printed as JSON on stdout; a non-zero exit means the server itself failed
// to boot, not that individual sessions failed (those are typed in the
// report). Exit status 2 means a check failed: a profile that does not
// conserve against the per-(tenant, phase) metrics, or, with -watchdog, any
// non-injected invariant violation.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"github.com/asterisc-release/erebor-go/internal/critpath"
	"github.com/asterisc-release/erebor-go/internal/egress"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/serve"
	"github.com/asterisc-release/erebor-go/internal/slo"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// writeFile streams fn's output into path (stdout when path is "-").
func writeFile(path string, stdout io.Writer, fn func(w io.Writer) error) error {
	if path == "-" {
		return fn(stdout)
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

// filterTrack keeps events on the named export track.
func filterTrack(events []trace.Event, track string) []trace.Event {
	var out []trace.Event
	for _, ev := range events {
		if trace.TrackName(ev.Track) == track {
			out = append(out, ev)
		}
	}
	return out
}

// filterTenant keeps events belonging to the tenant's session trees:
// the forest is reconstructed, span IDs under the tenant's roots are
// collected, and only events carrying those IDs survive.
func filterTenant(events []trace.Event, dropped uint64, tenant int) []trace.Event {
	forest, _ := critpath.Build(events, dropped) // partial forest still filters
	allowed := make(map[trace.SpanID]bool)
	var mark func(n *critpath.Node)
	mark = func(n *critpath.Node) {
		allowed[n.ID()] = true
		for _, c := range n.Children {
			mark(c)
		}
	}
	for _, sess := range forest.Sessions {
		if sess.Tenant == tenant {
			mark(sess.Root)
		}
	}
	var out []trace.Event
	for _, ev := range events {
		if ev.Span != 0 && allowed[ev.Span] {
			out = append(out, ev)
		}
	}
	return out
}

func main() {
	_, _, status := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(status)
}

// run serves the fleet args describe and writes every view they ask for.
// It returns the server, its report and the exit status; the server and
// report are nil when the status is 1.
func run(args []string, stdout, stderr io.Writer) (*serve.Server, *serve.Report, int) {
	fail := func(format string, a ...any) (*serve.Server, *serve.Report, int) {
		fmt.Fprintf(stderr, "erebor-serve: "+format+"\n", a...)
		return nil, nil, 1
	}
	fs := flag.NewFlagSet("erebor-serve", flag.ExitOnError)
	fs.SetOutput(stderr)
	tenants := fs.Int("tenants", 8, "concurrent tenant slots")
	sessions := fs.Int("sessions", 0, "total sessions to serve (default 2x tenants)")
	seed := fs.Int64("seed", 1, "run seed (requests, fault schedule)")
	vcpus := fs.Int("vcpus", 1, "simulated vCPUs serving the fleet")
	memMB := fs.Uint64("mem", 0, "CVM memory in MiB (default sized to the fleet)")
	inputBytes := fs.Int("input", 1024, "per-tenant request bytes")
	modelKB := fs.Int("model", 64, "shared model size in KiB")
	forkpool := fs.Bool("forkpool", false, "instantiate every sandbox as a copy-on-write fork of a snapshot template (default: cold-boot every sandbox)")
	chaos := fs.Float64("chaos", 0, "per-class fault rate on the untrusted hop (0 disables; at most 1/6, as the six classes' rates sum to at most 1)")
	chaosSeed := fs.Int64("chaos-seed", 0, "fault-schedule seed (default: -seed)")
	tracePath := fs.String("trace", "", "write a Chrome trace of the run to this file (- for stdout)")
	traceCap := fs.Int("trace-cap", 0, "flight-recorder ring capacity in events (0 = default)")
	critPath := fs.String("critical-path", "", "write the critical-path breakdown to this file (- for stdout)")
	tenantF := fs.Int("tenant", -1, "narrow -critical-path to one tenant's rows and -trace to its span trees")
	trackF := fs.String("track", "", "narrow -trace to one track (e.g. monitor, kernel, server, cpu-0)")
	top := fs.Int("top", 0, "print the K hottest cycle stacks (0 disables)")
	flame := fs.String("flame", "", "write folded cycle stacks to this file (- for stdout; feed to flamegraph.pl / speedscope)")
	pprofPath := fs.String("pprof", "", "write a pprof-compatible protobuf cycle profile to this file (- for stdout)")
	quiet := fs.Bool("quiet", false, "print only the summary line, not the full JSON report")
	watchdog := fs.Bool("watchdog", false, "run continuous invariant sweeps (exit 2 on any non-injected violation)")
	watchdogEvery := fs.Uint64("watchdog-every", 0, "watchdog cadence in virtual cycles (0 = default)")
	metricsPath := fs.String("metrics", "", "write the OpenMetrics registry export to this file (- for stdout)")
	eventsPath := fs.String("events", "", "write the watchdog event log (JSONL) to this file (- for stdout)")
	phases := fs.Bool("phases", false, "print the per-tenant phase-cycle table after the report")
	statusz := fs.String("statusz", "", "serve /metrics, /healthz and /statusz on this address after the run (blocks)")
	egressPolicy := fs.String("egress-policy", "",
		"deny-by-default egress allowlist spec (e.g. 'allow client/self; allow service/model-registry'; 'default' for the stock policy; empty disables enforcement)")
	egressLog := fs.String("egress-log", "", "write the egress decision log (JSONL) to this file (- for stdout)")
	chaosProxy := fs.Float64("chaos-proxy", 0, "per-frame rate of the proxy-edge fault classes (frame-redirect + policy-corrupt; needs -egress-policy)")
	chaosLatency := fs.Float64("chaos-latency", 0, "per-frame rate of injected latency stalls (separate seeded stream; never perturbs the wire schedule)")
	chaosLatencyCycles := fs.Uint64("chaos-latency-cycles", 0, "stall size in virtual cycles per injected latency (0 = default)")
	sloSpec := fs.String("slo", "",
		"arm the SLO engine: 'default' for the stock objectives, or a spec like 'ttfc:p99<=6000000@0.01; compute:p99<=16000000'")
	sloWindow := fs.Uint64("slo-window", 0, "SLO evaluation window in virtual cycles (0 = default)")
	sloReport := fs.String("slo-report", "", "write the byte-deterministic SLO evaluation stream (JSONL) to this file (- for stdout; needs -slo)")
	fs.Parse(args)

	cfg := serve.Config{
		Tenants:       *tenants,
		Sessions:      *sessions,
		Seed:          *seed,
		VCPUs:         *vcpus,
		MemMB:         *memMB,
		InputBytes:    *inputBytes,
		ModelBytes:    *modelKB << 10,
		ForkPool:      *forkpool,
		Trace:         *tracePath != "" || *critPath != "",
		TraceCapacity: *traceCap,
		Profile:       *top > 0 || *flame != "" || *pprofPath != "",
		Watchdog:      *watchdog,
	}
	if *watchdogEvery > 0 {
		cfg.Watchdog, cfg.WatchdogEvery = true, *watchdogEvery
	}
	if cfg.Sessions == 0 {
		cfg.Sessions = 2 * cfg.Tenants
	}
	if cfg.MemMB == 0 && *tenants >= 64 {
		cfg.MemMB = uint64(256 + *tenants*4)
	}
	if *egressPolicy != "" {
		if *egressPolicy == "default" {
			cfg.Egress = serve.DefaultEgressSpec()
		} else {
			sp, err := egress.ParseSpec(*egressPolicy)
			if err != nil {
				return fail("-egress-policy: %v", err)
			}
			cfg.Egress = sp
		}
	}
	if *chaosProxy > 0 && cfg.Egress == nil {
		return fail("-chaos-proxy needs -egress-policy (proxy faults act on the policed egress edge)")
	}
	if *chaos > 0 || *chaosProxy > 0 || *chaosLatency > 0 {
		cs := *chaosSeed
		if cs == 0 {
			cs = *seed
		}
		// Proxy-edge and latency faults draw from their own PRNG streams, so
		// arming them (even with -chaos 0) never perturbs the wire fault
		// schedule.
		plan := faultinject.Uniform(cs, *chaos).
			WithProxyFaults(*chaosProxy, *chaosProxy/2).
			WithLatency(*chaosLatency, *chaosLatencyCycles)
		cfg.Chaos = &plan
	}
	if *sloSpec != "" {
		if *sloSpec == "default" {
			cfg.SLO = slo.Default()
		} else {
			objs, err := slo.ParseObjectives(*sloSpec)
			if err != nil {
				return fail("-slo: %v", err)
			}
			cfg.SLO = objs
		}
		cfg.SLOWindow = *sloWindow
	}
	if *sloReport != "" && *sloSpec == "" {
		return fail("-slo-report needs -slo")
	}
	if *egressLog != "" && cfg.Egress == nil {
		return fail("-egress-log needs -egress-policy")
	}
	if *tenantF >= 0 && !cfg.Trace {
		return fail("-tenant needs -trace or -critical-path")
	}
	if *trackF != "" && *tracePath == "" {
		return fail("-track needs -trace")
	}

	s, err := serve.New(cfg)
	if err != nil {
		return fail("%v", err)
	}
	rep, err := s.Run()
	if err != nil {
		return fail("%v", err)
	}
	p := s.Profiler()
	if cfg.Profile {
		// Conservation is the profile's integrity seal: every virtual cycle
		// the run charged must appear in exactly one stack, bucket for bucket.
		if bad := p.CheckConservation(s.World().Met); len(bad) > 0 {
			fmt.Fprintf(stderr, "erebor-serve: profile conservation FAILED:\n")
			for _, line := range bad {
				fmt.Fprintf(stderr, "  %s\n", line)
			}
			return s, rep, 2
		}
	}

	rec := s.World().Rec
	views := []struct {
		path string
		fn   func(w io.Writer) error
	}{
		{*tracePath, func(w io.Writer) error {
			events := rec.Snapshot()
			if *tenantF >= 0 {
				events = filterTenant(events, rec.Dropped(), *tenantF)
			}
			if *trackF != "" {
				events = filterTrack(events, *trackF)
			}
			return trace.ExportChromeEvents(w, events, rec.Dropped())
		}},
		{*critPath, func(w io.Writer) error {
			forest, err := critpath.Build(rec.Snapshot(), rec.Dropped())
			if err != nil {
				// Typed incompleteness: the report itself carries the partial
				// banner; the stderr note makes it visible in pipelines too.
				fmt.Fprintf(stderr, "erebor-serve: %v\n", err)
			}
			if cp := critpath.Analyze(forest); *tenantF >= 0 {
				cp.WriteTenants(w, *tenantF)
			} else {
				cp.WriteText(w)
			}
			return nil
		}},
		{*flame, p.WriteFolded},
		{*pprofPath, p.WritePprof},
		{*metricsPath, s.World().Met.ExportOpenMetrics},
		{*eventsPath, s.World().Mon.ExportWatchdogJSONL},
	}
	for _, v := range views {
		if v.path == "" {
			continue
		}
		if err := writeFile(v.path, stdout, v.fn); err != nil {
			return fail("%s: %v", v.path, err)
		}
	}
	if *egressLog != "" {
		if err := writeFile(*egressLog, stdout, s.ExportEgressJSONL); err != nil {
			return fail("egress log export: %v", err)
		}
	}

	if *quiet {
		fmt.Fprintf(stdout, "tenants=%d vcpus=%d sessions=%d completed=%d failed=%d forked=%d cycles/session=%d sessions/s=%.1f\n",
			rep.Tenants, rep.VCPUs, rep.Sessions, rep.Completed, rep.Failed,
			rep.ForkSessions, rep.CyclesPerSession, rep.SessionsPerSec)
	} else {
		stdout.Write(rep.JSON())
		fmt.Fprintln(stdout)
	}
	if *sloReport != "" {
		if err := writeFile(*sloReport, stdout, s.SLO().ExportJSONL); err != nil {
			return fail("slo report export: %v", err)
		}
	}
	if *phases {
		serve.WritePhaseTable(stdout, s.PhaseBreakdown())
	}
	if *top > 0 {
		if err := prof.WriteTop(stdout, p.Stacks(), *top); err != nil {
			return fail("%v", err)
		}
	}
	if cfg.Profile && !*quiet {
		fmt.Fprintf(stdout, "profile: %d cycles in %d stacks, conserved exactly against phase attribution\n",
			p.Total(), len(p.Stacks()))
	}
	if s.SLO() != nil && !*quiet {
		slo.WriteTable(stdout, s.SLO().Latest())
	}
	if s.Ledger() != nil && !*quiet {
		allowed, denied := s.Ledger().Counts()
		fmt.Fprintf(stdout, "egress: policy %q — %d allowed, %d denied (%d typed denials drained, %d dropped at queue cap)\n",
			cfg.Egress.String(), allowed, denied, rep.EgressDenialsSeen, rep.EgressDenialDrops)
	}

	status := s.Status(rep)
	if cfg.Watchdog {
		mon := s.World().Mon
		if n := mon.WatchdogNonInjected(); n > 0 {
			fmt.Fprintf(stderr, "erebor-serve: watchdog: %d non-injected invariant violations in %d sweeps\n",
				n, mon.WatchdogSweeps())
			if *statusz == "" {
				return s, rep, 2
			}
		} else if !*quiet {
			fmt.Fprintf(stdout, "watchdog: healthy (%d sweeps)\n", mon.WatchdogSweeps())
		}
	}

	if *statusz != "" {
		// The simulation has finished: the handler serves frozen snapshot
		// bytes, so introspection can never perturb a (deterministic) run.
		fmt.Fprintf(stderr, "erebor-serve: serving /metrics /healthz /statusz on %s\n", *statusz)
		if err := http.ListenAndServe(*statusz, status.Handler()); err != nil {
			return fail("statusz: %v", err)
		}
	}
	return s, rep, 0
}
