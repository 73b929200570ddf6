// Command erebor-trace runs a scripted attested session (or a serving
// fleet) on a traced platform and exports the flight recorder:
//
//	erebor-trace -seed 1 -format chrome > session.json   # chrome://tracing / Perfetto
//	erebor-trace -seed 1 -format prom                    # Prometheus text exposition
//	erebor-trace -seed 7 -chaos 0.05 -format chrome      # seeded fault injection
//	erebor-trace -seed 1 -tenants 8 -critical-path       # fleet critical-path breakdown
//	erebor-trace -seed 1 -tenants 8 -tenant 3            # one tenant's span trees
//
// The session is fully deterministic on the virtual clock: the same seed,
// chaos rate and request count produce byte-identical exports (frame
// contents vary with the ephemeral handshake keys, but the recorder never
// captures contents — only typed events and cycle timestamps). The
// critical-path breakdown inherits that determinism: a pinned (seed,
// config) reproduces its golden breakdown byte for byte.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	erebor "github.com/asterisc-release/erebor-go"
	"github.com/asterisc-release/erebor-go/internal/critpath"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/serve"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// sessionConfig scripts one traced run.
type sessionConfig struct {
	Seed     int64
	Chaos    float64 // per-class injection rate (0 = clean relay)
	Requests int
	Capacity int // event-ring capacity (0 = default)
}

// runSession boots a traced platform, drives Requests echo round trips
// through the attested channel, and returns the platform for export. Under
// chaos, individual round trips may fail with typed timeouts; those are
// returned in failures — the trace is still valid (observing failures is
// the point of the recorder).
func runSession(cfg sessionConfig) (p *erebor.Platform, failures []error, err error) {
	pcfg := erebor.PlatformConfig{
		MemMB: 96,
		Trace: erebor.TraceConfig{Enabled: true, CapacityEvents: cfg.Capacity},
	}
	if cfg.Chaos > 0 {
		pcfg.Chaos = &erebor.ChaosConfig{
			Seed:     cfg.Seed,
			DropRate: cfg.Chaos, DuplicateRate: cfg.Chaos, ReorderRate: cfg.Chaos,
			CorruptRate: cfg.Chaos, TruncateRate: cfg.Chaos, ReplayRate: cfg.Chaos,
		}
	}
	p, err = erebor.NewPlatform(pcfg)
	if err != nil {
		return nil, nil, err
	}
	n := cfg.Requests
	c, err := p.Launch(erebor.ContainerConfig{
		Name: "traced-echo", HeapPages: 64,
		Main: func(r *erebor.Runtime) {
			for i := 0; i < n; i++ {
				in, err := r.ReceiveInput(4096)
				if err != nil || in == nil {
					break
				}
				if err := r.SendOutput(bytes.ToUpper(in)); err != nil {
					break
				}
			}
			// Linger one bounded receive so retransmitted requests can still
			// be served from the monitor's history before teardown.
			r.ReceiveInput(4096)
			r.EndSession()
		},
	})
	if err != nil {
		return nil, nil, err
	}
	cl, err := p.Connect(c)
	if err != nil {
		return p, nil, fmt.Errorf("attested handshake: %w", err)
	}
	for i := 0; i < n; i++ {
		req := fmt.Appendf(nil, "request %d (seed %d): confidential payload", i, cfg.Seed)
		if err := cl.SendWithRetry(req); err != nil {
			failures = append(failures, fmt.Errorf("request %d send: %w", i, err))
			continue
		}
		if _, err := cl.RecvWait(); err != nil {
			failures = append(failures, fmt.Errorf("request %d recv: %w", i, err))
		}
	}
	p.Run()
	return p, failures, nil
}

// export writes the recorder in the requested format.
func export(p *erebor.Platform, format string, w io.Writer) error {
	switch format {
	case "chrome":
		return p.ExportChromeTrace(w)
	case "prom":
		return p.ExportPrometheus(w)
	default:
		return fmt.Errorf("unknown format %q (want chrome|prom)", format)
	}
}

// fleetConfig scripts one traced serving fleet.
type fleetConfig struct {
	Seed               int64
	Tenants            int
	Sessions           int
	VCPUs              int
	Chaos              float64
	ChaosLatency       float64
	ChaosLatencyCycles uint64
	Capacity           int
}

// runFleet serves a traced multi-tenant fleet on the fork pool (the
// production fast-start path) and returns the recorder contents. Unlike the
// scripted echo session, a fleet run emits the full causal forest:
// per-session roots, phase segments, and the monitor/kernel spans under
// them.
func runFleet(cfg fleetConfig) (events []trace.Event, dropped uint64, failed int, err error) {
	scfg := serve.Config{
		Tenants: cfg.Tenants, Sessions: cfg.Sessions, Seed: cfg.Seed,
		VCPUs: cfg.VCPUs, ForkPool: true, Trace: true, TraceCapacity: cfg.Capacity,
	}
	if cfg.Chaos > 0 || cfg.ChaosLatency > 0 {
		plan := faultinject.Uniform(cfg.Seed, cfg.Chaos).
			WithLatency(cfg.ChaosLatency, cfg.ChaosLatencyCycles)
		scfg.Chaos = &plan
	}
	s, err := serve.New(scfg)
	if err != nil {
		return nil, 0, 0, err
	}
	rep, err := s.Run()
	if err != nil {
		return nil, 0, 0, err
	}
	rec := s.World().Rec
	return rec.Snapshot(), rec.Dropped(), rep.Failed, nil
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
	seed := flag.Int64("seed", 1, "deterministic seed (chaos schedule + request payloads)")
	format := flag.String("format", "chrome", "export format: chrome|prom")
	chaos := flag.Float64("chaos", 0, "per-class fault injection rate on the untrusted relay (0 = clean; at most 1/6, as the six classes' rates sum to at most 1)")
	chaosLatency := flag.Float64("chaos-latency", 0, "per-frame latency injection rate (fleet mode; separate seeded stream)")
	chaosLatencyCycles := flag.Uint64("chaos-latency-cycles", 0, "stall size in virtual cycles per injected latency (0 = default; match erebor-serve to replay its run)")
	requests := flag.Int("requests", 3, "echo round trips to script")
	capacity := flag.Int("cap", 0, "event ring capacity (0 = default)")
	out := flag.String("o", "", "output file (default stdout)")
	tenants := flag.Int("tenants", 0, "run a traced serving fleet with this many slots instead of the scripted session")
	sessions := flag.Int("sessions", 0, "fleet sessions to serve (default = -tenants)")
	vcpus := flag.Int("vcpus", 1, "fleet vCPUs (slots spread across cores)")
	critical := flag.Bool("critical-path", false, "emit the critical-path breakdown instead of an export")
	tenantF := flag.Int("tenant", -1, "filter to one tenant's span trees (chrome export / critical-path table)")
	trackF := flag.String("track", "", "filter the chrome export to one track (e.g. monitor, kernel, server, cpu-0)")
	flag.Parse()

	var (
		events  []trace.Event
		dropped uint64
		p       *erebor.Platform
	)
	if *tenants > 0 {
		evs, drop, failedN, err := runFleet(fleetConfig{
			Seed: *seed, Tenants: *tenants, Sessions: *sessions, VCPUs: *vcpus,
			Chaos: *chaos, ChaosLatency: *chaosLatency,
			ChaosLatencyCycles: *chaosLatencyCycles, Capacity: *capacity,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "erebor-trace: %v\n", err)
			os.Exit(1)
		}
		if failedN > 0 {
			fmt.Fprintf(os.Stderr, "erebor-trace: %d fleet sessions failed (traced)\n", failedN)
		}
		events, dropped = evs, drop
	} else {
		var failures []error
		var err error
		p, failures, err = runSession(sessionConfig{
			Seed: *seed, Chaos: *chaos, Requests: *requests, Capacity: *capacity,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "erebor-trace: %v\n", err)
			os.Exit(1)
		}
		for _, f := range failures {
			// Chaos can time out individual round trips; the trace records how.
			fmt.Fprintf(os.Stderr, "erebor-trace: %v (traced)\n", f)
		}
		events, dropped = p.TraceSnapshot(), p.TraceDropped()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erebor-trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	switch {
	case *critical:
		// The forest is built from the unfiltered snapshot (a track filter
		// would sever the trees); -tenant narrows the rendered table.
		forest, err := critpath.Build(events, dropped)
		if err != nil {
			// Typed incompleteness: the report itself carries the partial
			// banner; the stderr note makes it visible in pipelines too.
			fmt.Fprintf(os.Stderr, "erebor-trace: %v\n", err)
		}
		rep := critpath.Analyze(forest)
		if *tenantF >= 0 {
			rep.WriteTenants(w, *tenantF)
		} else {
			rep.WriteText(w)
		}
	case *format == "chrome":
		if *trackF != "" {
			events = filterTrack(events, *trackF)
		}
		if *tenantF >= 0 {
			events = filterTenant(events, dropped, *tenantF)
		}
		if err := trace.ExportChromeEvents(w, events, dropped); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-trace: %v\n", err)
			os.Exit(1)
		}
	case p != nil:
		if err := export(p, *format, w); err != nil {
			fmt.Fprintf(os.Stderr, "erebor-trace: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "erebor-trace: format %q is only available for scripted sessions (chrome|critical-path for fleets)\n", *format)
		os.Exit(1)
	}

	if p != nil {
		// A compact session digest on stderr (stdout stays pure export).
		st := p.Stats()
		fmt.Fprintf(os.Stderr, "erebor-trace: %d events kept, %d dropped; %d EMCs, %d sandbox exits, %d cycles\n",
			len(events), dropped, st.EMCs, st.SandboxExits, st.VirtualCycles)
		if st.FaultInjection != nil {
			fi := st.FaultInjection
			fmt.Fprintf(os.Stderr, "erebor-trace: chaos drop=%d dup=%d reorder=%d corrupt=%d trunc=%d replay=%d lat=%d pass=%d\n",
				fi.Drops, fi.Duplicates, fi.Reorders, fi.Corrupts, fi.Truncates, fi.Replays, fi.Latencies, fi.Passed)
		}
	} else {
		fmt.Fprintf(os.Stderr, "erebor-trace: %d events kept, %d dropped\n", len(events), dropped)
	}
}
