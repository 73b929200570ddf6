// Command erebor-trace runs a scripted attested session on a traced
// platform and exports the flight recorder:
//
//	erebor-trace -seed 1 -format chrome > session.json   # chrome://tracing / Perfetto
//	erebor-trace -seed 1 -format prom                    # Prometheus text exposition
//	erebor-trace -seed 7 -chaos 0.05 -format chrome      # seeded fault injection
//
// The session is fully deterministic on the virtual clock: the same seed,
// chaos rate and request count produce byte-identical exports. Under chaos
// the seed also fixes the quoting key and every handshake key share, so
// corrupt and truncate faults flip the same bytes on every run; a clean
// run draws its keys from the OS, which the exports never show (the
// recorder captures typed events and cycle timestamps, not contents). A
// serving fleet's trace, span trees and critical path come from the run
// that serves it: erebor-serve -trace/-critical-path.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	erebor "github.com/asterisc-release/erebor-go"
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

func main() {
	seed := flag.Int64("seed", 1, "deterministic seed (chaos schedule + request payloads)")
	format := flag.String("format", "chrome", "export format: chrome|prom")
	chaos := flag.Float64("chaos", 0, "per-class fault injection rate on the untrusted relay (0 = clean; at most 1/6, as the six classes' rates sum to at most 1)")
	requests := flag.Int("requests", 3, "echo round trips to script")
	capacity := flag.Int("cap", 0, "event ring capacity (0 = default)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	p, failures, err := runSession(sessionConfig{
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
	if err := export(p, *format, w); err != nil {
		fmt.Fprintf(os.Stderr, "erebor-trace: %v\n", err)
		os.Exit(1)
	}

	// A compact session digest on stderr (stdout stays pure export).
	st := p.Stats()
	fmt.Fprintf(os.Stderr, "erebor-trace: %d events kept, %d dropped; %d EMCs, %d sandbox exits, %d cycles\n",
		len(p.TraceSnapshot()), p.TraceDropped(), st.EMCs, st.SandboxExits, st.VirtualCycles)
	if st.FaultInjection != nil {
		fi := st.FaultInjection
		fmt.Fprintf(os.Stderr, "erebor-trace: chaos drop=%d dup=%d reorder=%d corrupt=%d trunc=%d replay=%d lat=%d pass=%d\n",
			fi.Drops, fi.Duplicates, fi.Reorders, fi.Corrupts, fi.Truncates, fi.Replays, fi.Latencies, fi.Passed)
	}
}
