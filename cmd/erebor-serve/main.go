// Command erebor-serve runs the multi-tenant session server on the
// simulated Erebor platform: N concurrent remote tenants, each handled in
// its own EREBOR-SANDBOX, all sharing one physical copy of the model bytes
// through a common region. Every session gets a fresh sandbox: a cold boot
// by default, or a copy-on-write fork of a snapshot template with
// -forkpool.
//
//	erebor-serve -tenants 64 -sessions 256            # cold sandbox per session
//	erebor-serve -tenants 64 -sessions 256 -forkpool  # CoW forks from a snapshot template
//	erebor-serve -tenants 64 -chaos 0.05              # fault-injected fleet
//	erebor-serve -tenants 64 -vcpus 4                 # SMP fleet, 4 cores
//	erebor-serve -tenants 8 -trace trace.json         # Chrome trace export
//	erebor-serve -tenants 8 -watchdog -phases         # invariant watchdog + phase table
//	erebor-serve -tenants 8 -metrics m.txt -events e.jsonl
//	erebor-serve -tenants 8 -watchdog -statusz :8080  # post-run introspection endpoint
//	erebor-serve -tenants 8 -egress-policy default    # deny-by-default egress enforcement
//	erebor-serve -tenants 8 -egress-policy default -chaos-proxy 0.03 -egress-log d.jsonl
//	erebor-serve -tenants 64 -slo default             # deterministic SLO engine
//	erebor-serve -tenants 64 -slo default -chaos-latency 0.3 -slo-report slo.jsonl
//
// Runs are deterministic: the same flags and seed reproduce the same report
// bytes (and, fault-free, the same trace bytes — plus byte-identical
// OpenMetrics and watchdog JSONL exports). The report is printed as JSON on
// stdout; a non-zero exit means the server itself failed to boot, not that
// individual sessions failed (those are typed in the report). With -watchdog
// the exit status also covers the invariant verdict: any non-injected
// violation exits 2.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"github.com/asterisc-release/erebor-go/internal/egress"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/serve"
	"github.com/asterisc-release/erebor-go/internal/slo"
)

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

func main() {
	tenants := flag.Int("tenants", 8, "concurrent tenant slots")
	sessions := flag.Int("sessions", 0, "total sessions to serve (default 2x tenants)")
	seed := flag.Int64("seed", 1, "run seed (requests, fault schedule)")
	vcpus := flag.Int("vcpus", 1, "simulated vCPUs serving the fleet")
	memMB := flag.Uint64("mem", 0, "CVM memory in MiB (default sized to the fleet)")
	inputBytes := flag.Int("input", 1024, "per-tenant request bytes")
	modelKB := flag.Int("model", 64, "shared model size in KiB")
	forkpool := flag.Bool("forkpool", false, "instantiate every sandbox as a copy-on-write fork of a snapshot template (default: cold-boot every sandbox)")
	chaos := flag.Float64("chaos", 0, "per-class fault rate on the untrusted hop (0 disables; at most 1/6, as the six classes' rates sum to at most 1)")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-schedule seed (default: -seed)")
	tracePath := flag.String("trace", "", "write a Chrome trace of the run to this file")
	quiet := flag.Bool("quiet", false, "print only the summary line, not the full JSON report")
	watchdog := flag.Bool("watchdog", false, "run continuous invariant sweeps (exit 2 on any non-injected violation)")
	watchdogEvery := flag.Uint64("watchdog-every", 0, "watchdog cadence in virtual cycles (0 = default)")
	metricsPath := flag.String("metrics", "", "write the OpenMetrics registry export to this file (- for stdout)")
	eventsPath := flag.String("events", "", "write the watchdog event log (JSONL) to this file (- for stdout)")
	phases := flag.Bool("phases", false, "print the per-tenant phase-cycle table after the report")
	statusz := flag.String("statusz", "", "serve /metrics, /healthz and /statusz on this address after the run (blocks)")
	egressPolicy := flag.String("egress-policy", "",
		"deny-by-default egress allowlist spec (e.g. 'allow client/self; allow service/model-registry'; 'default' for the stock policy; empty disables enforcement)")
	egressLog := flag.String("egress-log", "", "write the egress decision log (JSONL) to this file (- for stdout)")
	chaosProxy := flag.Float64("chaos-proxy", 0, "per-frame rate of the proxy-edge fault classes (frame-redirect + policy-corrupt; needs -egress-policy)")
	chaosLatency := flag.Float64("chaos-latency", 0, "per-frame rate of injected latency stalls (separate seeded stream; never perturbs the wire schedule)")
	chaosLatencyCycles := flag.Uint64("chaos-latency-cycles", 0, "stall size in virtual cycles per injected latency (0 = default)")
	sloSpec := flag.String("slo", "",
		"arm the SLO engine: 'default' for the stock objectives, or a spec like 'ttfc:p99<=6000000@0.01; compute:p99<=16000000'")
	sloWindow := flag.Uint64("slo-window", 0, "SLO evaluation window in virtual cycles (0 = default)")
	sloReport := flag.String("slo-report", "", "write the byte-deterministic SLO evaluation stream (JSONL) to this file (- for stdout; needs -slo)")
	flag.Parse()

	cfg := serve.Config{
		Tenants:    *tenants,
		Sessions:   *sessions,
		Seed:       *seed,
		VCPUs:      *vcpus,
		MemMB:      *memMB,
		InputBytes: *inputBytes,
		ModelBytes: *modelKB << 10,
		ForkPool:   *forkpool,
		Trace:      *tracePath != "",
		Watchdog:   *watchdog,
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
				fmt.Fprintf(os.Stderr, "erebor-serve: -egress-policy: %v\n", err)
				os.Exit(1)
			}
			cfg.Egress = sp
		}
	}
	if *chaosProxy > 0 && cfg.Egress == nil {
		fmt.Fprintf(os.Stderr, "erebor-serve: -chaos-proxy needs -egress-policy (proxy faults act on the policed egress edge)\n")
		os.Exit(1)
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
				fmt.Fprintf(os.Stderr, "erebor-serve: -slo: %v\n", err)
				os.Exit(1)
			}
			cfg.SLO = objs
		}
		cfg.SLOWindow = *sloWindow
	}
	if *sloReport != "" && *sloSpec == "" {
		fmt.Fprintf(os.Stderr, "erebor-serve: -slo-report needs -slo\n")
		os.Exit(1)
	}

	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "erebor-serve: %v\n", err)
		os.Exit(1)
	}
	rep, err := s.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "erebor-serve: %v\n", err)
		os.Exit(1)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: %v\n", err)
			os.Exit(1)
		}
		if err := s.World().Rec.ExportChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: trace export: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: %v\n", err)
			os.Exit(1)
		}
	}

	if *metricsPath != "" {
		if err := writeFile(*metricsPath, func(f *os.File) error {
			return s.World().Met.ExportOpenMetrics(f)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: metrics export: %v\n", err)
			os.Exit(1)
		}
	}
	if *eventsPath != "" {
		if err := writeFile(*eventsPath, func(f *os.File) error {
			return s.World().Mon.ExportWatchdogJSONL(f)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: event export: %v\n", err)
			os.Exit(1)
		}
	}
	if *egressLog != "" {
		if s.Ledger() == nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: -egress-log needs -egress-policy\n")
			os.Exit(1)
		}
		if err := writeFile(*egressLog, func(f *os.File) error {
			return s.ExportEgressJSONL(f)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: egress log export: %v\n", err)
			os.Exit(1)
		}
	}

	if *quiet {
		fmt.Printf("tenants=%d vcpus=%d sessions=%d completed=%d failed=%d forked=%d cycles/session=%d sessions/s=%.1f\n",
			rep.Tenants, rep.VCPUs, rep.Sessions, rep.Completed, rep.Failed,
			rep.ForkSessions, rep.CyclesPerSession, rep.SessionsPerSec)
	} else {
		os.Stdout.Write(rep.JSON())
		fmt.Println()
	}
	if *sloReport != "" {
		if err := writeFile(*sloReport, func(f *os.File) error {
			return s.SLO().ExportJSONL(f)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: slo report export: %v\n", err)
			os.Exit(1)
		}
	}
	if *phases {
		serve.WritePhaseTable(os.Stdout, s.PhaseBreakdown())
	}
	if s.SLO() != nil && !*quiet {
		slo.WriteTable(os.Stdout, s.SLO().Latest())
	}
	if s.Ledger() != nil && !*quiet {
		allowed, denied := s.Ledger().Counts()
		fmt.Printf("egress: policy %q — %d allowed, %d denied (%d typed denials drained, %d dropped at queue cap)\n",
			cfg.Egress.String(), allowed, denied, rep.EgressDenialsSeen, rep.EgressDenialDrops)
	}

	status := s.Status(rep)
	if cfg.Watchdog {
		mon := s.World().Mon
		if n := mon.WatchdogNonInjected(); n > 0 {
			fmt.Fprintf(os.Stderr, "erebor-serve: watchdog: %d non-injected invariant violations in %d sweeps\n",
				n, mon.WatchdogSweeps())
			if *statusz == "" {
				os.Exit(2)
			}
		} else if !*quiet {
			fmt.Printf("watchdog: healthy (%d sweeps)\n", mon.WatchdogSweeps())
		}
	}

	if *statusz != "" {
		// The simulation has finished: the handler serves frozen snapshot
		// bytes, so introspection can never perturb a (deterministic) run.
		fmt.Fprintf(os.Stderr, "erebor-serve: serving /metrics /healthz /statusz on %s\n", *statusz)
		if err := http.ListenAndServe(*statusz, status.Handler()); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-serve: statusz: %v\n", err)
			os.Exit(1)
		}
	}
}
