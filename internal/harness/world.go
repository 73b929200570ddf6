// Package harness assembles complete simulated platforms (machine + TDX +
// monitor + kernel) and drives the paper's experiments: it is the code
// behind cmd/erebor-bench and the repository's table/figure benchmarks.
package harness

import (
	"fmt"
	"io"

	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/entropy"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// World is one fully booted simulated CVM.
type World struct {
	Phys *mem.Physical
	M    *cpu.Machine
	TDX  *tdx.Module
	Host *tdx.Host
	Mon  *monitor.Monitor // nil in native mode
	K    *kernel.Kernel
	QK   *attest.QuotingKey

	Mode kernel.Mode

	// Rec is the flight recorder shared by every layer of this world (nil
	// when tracing is off).
	Rec *trace.Recorder

	// Met is the telemetry registry shared by every layer (always non-nil:
	// recording never charges the virtual clock, so there is no metered/
	// unmetered cycle split to preserve — byte- and cycle-identity per seed
	// holds with the registry always on).
	Met *metrics.Registry

	// Attr is the world's single execution context, held by the machine
	// (M.Attr): the (tenant, phase) the serving loop switches, the span
	// scope, profiler frames and the attribution window. Monitor gates,
	// kernel dispatch, secure channels, the recorder and the profiler all
	// read it. Always non-nil; Tenant is NoTenant outside serving.
	Attr *metrics.Attr

	// Entropy is the handshake entropy source every key in this world draws
	// from: seeded from the chaos plan, or nil (OS CSPRNG) without one.
	// Seeded worlds replay handshake bytes — and so the effect of
	// content-dependent wire faults — across processes.
	Entropy io.Reader

	// Inj is the world's fault schedule (nil without a chaos plan): every
	// session's untrusted client<->proxy hop passes through it, so all the
	// sessions of one world draw from one deterministic schedule. Latency
	// faults stall this world's clock.
	Inj *faultinject.Injector

	// expectedMRTD is ExpectedMRTD of the booted monitor's image (Erebor
	// mode): every client of this world checks its quotes against it.
	expectedMRTD [tdx.MeasurementSize]byte
}

// WorldConfig sizes a world.
type WorldConfig struct {
	Mode  kernel.Mode
	MemMB uint64
	// VCPUs is the number of simulated cores (0 = 1). The scheduler
	// round-robins dispatches across them on the virtual clock.
	VCPUs int
	// PlainGuest boots a normal (non-TD) guest: the paper's §10 paravisor
	// compatibility experiment — Erebor's features are guest-local, so the
	// same code must run without TDX (cpuid no longer raises #VE;
	// attestation has no hardware root).
	PlainGuest bool
	// Trace attaches a flight recorder stamped on this world's virtual
	// clock; every monitor/kernel/channel hook then records into it.
	Trace bool
	// TraceCapacity bounds the recorder's event ring (0 = default).
	TraceCapacity int
	// Chaos, when non-nil, is the fault schedule of the untrusted
	// client<->proxy hop of every session on this world (World.Inj). It
	// also seeds all handshake key material (quoting key, client and server
	// ephemeral shares) from Chaos.Seed in place of the OS CSPRNG, so
	// corrupt/truncate faults — whose observable effect depends on the
	// random bytes they mutate — replay byte-for-byte across processes.
	Chaos *faultinject.Plan
}

// firmware is the measured boot firmware blob (OVMF stand-in).
var firmware = func() []byte {
	fw := make([]byte, 8192)
	copy(fw, []byte("OVMF open virtual machine firmware (simulated)"))
	return fw
}()

// NewWorld boots a complete platform in the requested mode. It refuses a
// chaos plan the injector cannot honor before allocating anything.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("harness: chaos plan: %w", err)
		}
	}
	if cfg.MemMB == 0 {
		cfg.MemMB = 128
	}
	ncores := cfg.VCPUs
	if ncores < 1 {
		ncores = 1
	}
	phys := mem.NewPhysical(cfg.MemMB << 20)
	m := cpu.NewMachine(phys, ncores, !cfg.PlainGuest)
	host := tdx.NewHost()
	module := tdx.NewModule(phys, host)
	m.TDX = module
	module.MeasureBoot("firmware", firmware)

	met := metrics.New()
	m.Attr = metrics.NewAttr(met, m.Clock.Now)
	w := &World{Phys: phys, M: m, TDX: module, Host: host, Mode: cfg.Mode,
		Met: met, Attr: m.Attr}
	if cfg.Trace {
		// The recorder reads the machine clock but never charges it: a
		// traced world and an untraced world run the same workload to the
		// same cycle count. Its event tallies live in the registry and its
		// span scope on the context.
		w.Rec = trace.New(cfg.TraceCapacity, m.Clock.Now, met, m.Attr)
	}
	if cfg.Chaos != nil {
		w.Entropy = entropy.New(cfg.Chaos.Seed)
		w.Inj = faultinject.New(*cfg.Chaos)
		w.Inj.Rec = w.Rec
		// Latency faults stall the virtual clock through the Charge hook,
		// inside whatever span is open at injection time, so an injected
		// delay shows up on the victim session's critical path.
		w.Inj.Charge = m.Clock.Charge
	}

	switch cfg.Mode {
	case kernel.ModeErebor:
		qk, err := attest.NewQuotingKeyRand(w.Entropy)
		if err != nil {
			return nil, err
		}
		w.QK = qk
		mon, err := monitor.Boot(m, module, qk)
		if err != nil {
			return nil, fmt.Errorf("harness: monitor boot: %w", err)
		}
		w.Mon = mon
		w.expectedMRTD = ExpectedMRTD(mon.MonitorImage())
		mon.Entropy = w.Entropy
		mon.Rec = w.Rec
		// Same wiring point as the recorder: before LoadKernel/kernel.New,
		// so boot-time EMCs land in the shared registry (the histogram/Stats
		// reconciliation tests count them).
		mon.Met = w.Met
		img := kernel.BuildKernelImage(kernel.ImageOptions{Instrumented: true})
		if _, err := mon.LoadKernel(img); err != nil {
			return nil, fmt.Errorf("harness: kernel load: %w", err)
		}
		k, err := kernel.New(kernel.Config{Machine: m, Mode: kernel.ModeErebor, Monitor: mon, TDX: module})
		if err != nil {
			return nil, err
		}
		k.Rec = w.Rec
		k.Met = w.Met
		w.K = k

	case kernel.ModeNative:
		// Reserve the same regions so frame-pool shapes match (the native
		// kernel uses shared-io for networking too).
		if _, err := phys.Reserve(monitor.RegionSharedIO, monitor.SharedIOFrames); err != nil {
			return nil, err
		}
		k, err := kernel.New(kernel.Config{Machine: m, Mode: kernel.ModeNative, TDX: module})
		if err != nil {
			return nil, err
		}
		k.Rec = w.Rec
		k.Met = w.Met
		w.K = k

	default:
		return nil, fmt.Errorf("harness: unknown mode %v", cfg.Mode)
	}
	return w, nil
}

// Close kills every task of the world that has not finished, so a world
// dropped with a parked task is not kept reachable by that task's
// goroutine. The world must not run afterwards. Closing twice is a no-op.
func (w *World) Close() { w.K.Close() }

// Core returns the boot/control core (core 0). Dispatches may run on any
// core; use Kernel.Core for the core of the current dispatch.
func (w *World) Core() *cpu.Core { return w.M.Cores[0] }
