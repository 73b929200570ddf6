// Package erebor is the public API of the Erebor reproduction: a drop-in
// sandbox architecture for confidential virtual machines (EuroSys '25).
//
// The package wraps the simulated platform (internal/...) behind the three
// concepts a service provider or client touches:
//
//   - Platform: a booted CVM with EREBOR-MONITOR in control (or a native
//     baseline CVM for comparison).
//   - Container: an EREBOR-SANDBOX running the provider's program on a
//     LibOS, with confined memory and optional shared common datasets.
//   - Client: a remote party that attests the monitor and exchanges
//     confidential data over a padded, encrypted channel relayed by an
//     untrusted proxy.
//
// Minimal flow:
//
//	p, _ := erebor.NewPlatform(erebor.PlatformConfig{MemMB: 96})
//	p.PublishCommon("model", modelBytes)
//	c, _ := p.Launch(erebor.ContainerConfig{
//		Name: "svc", HeapPages: 256, Commons: []string{"model"},
//		Main: func(r *erebor.Runtime) {
//			in, _ := r.ReceiveInput(4096)
//			r.SendOutput(process(in))
//			r.EndSession()
//		},
//	})
//	cl, _ := p.Connect(c)
//	cl.Send(secret)
//	p.Run()
//	reply, _ := cl.Recv()
package erebor

import (
	"errors"
	"fmt"
	"io"

	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// PlatformConfig sizes a platform.
type PlatformConfig struct {
	// MemMB is the CVM's physical memory (default 128).
	MemMB uint64
	// VCPUs is the number of simulated cores (default 1). The guest
	// scheduler steps tasks across them in a fixed round-robin interleave
	// on the virtual clock, so runs stay deterministic at any count.
	VCPUs int
	// Baseline boots a native CVM without the monitor (for comparisons).
	Baseline bool
	// Trace opts the platform into the flight recorder. Disabled (the zero
	// value), every hook in the monitor/kernel/channel stack is a single
	// nil compare and the platform's behavior is bit-identical to an
	// untraced one — the recorder reads the virtual clock but never
	// charges it.
	Trace TraceConfig
	// Chaos, when non-nil, interposes a seeded deterministic fault
	// injector on the untrusted client<->proxy hop of every Connect
	// session (all sessions draw from one schedule), and seeds the
	// platform's handshake keys and quotes from Chaos.Seed. The per-class
	// tallies surface in Stats().FaultInjection.
	Chaos *ChaosConfig
}

// TraceConfig configures the optional flight recorder.
type TraceConfig struct {
	Enabled bool
	// CapacityEvents bounds the event ring (0 = trace.DefaultCapacity).
	// On overflow the ring discards the oldest events and counts exactly
	// how many (TraceDropped); histograms and counters never drop.
	CapacityEvents int
}

// ChaosConfig is a seeded fault schedule for the untrusted relay hop:
// per-frame injection probabilities in [0,1] whose sum must be <= 1 (at
// most one fault fires per frame); NewPlatform refuses any other. Seed
// also seeds the quoting key and every handshake key share, so the same
// Seed and rates against the same workload replay the identical fault
// schedule, keys, quotes and wire frames byte for byte.
type ChaosConfig struct {
	Seed                                                                        int64
	DropRate, DuplicateRate, ReorderRate, CorruptRate, TruncateRate, ReplayRate float64
	// LatencyRate injects per-frame stalls of LatencyCycles virtual cycles
	// (0 cycles = the injector default). Latency draws from its own seeded
	// stream, so enabling it leaves the wire-fault schedule untouched.
	LatencyRate   float64
	LatencyCycles uint64
}

// plan is the fault schedule c describes (nil for a clean relay).
func (c *ChaosConfig) plan() *faultinject.Plan {
	if c == nil {
		return nil
	}
	return &faultinject.Plan{
		Seed: c.Seed,
		Drop: c.DropRate, Duplicate: c.DuplicateRate,
		Reorder: c.ReorderRate, Corrupt: c.CorruptRate,
		Truncate: c.TruncateRate, Replay: c.ReplayRate,
		Latency: c.LatencyRate, LatencyCycles: c.LatencyCycles,
	}
}

// Platform is a booted simulated CVM.
type Platform struct {
	w         *harness.World
	nextOwner mem.Owner
}

// NewPlatform boots a platform: firmware and monitor are measured, the
// kernel image is verified and loaded, and lockdown engages (unless
// Baseline is set).
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	mode := kernel.ModeErebor
	if cfg.Baseline {
		mode = kernel.ModeNative
	}
	w, err := harness.NewWorld(harness.WorldConfig{
		Mode: mode, MemMB: cfg.MemMB, VCPUs: cfg.VCPUs,
		Trace: cfg.Trace.Enabled, TraceCapacity: cfg.Trace.CapacityEvents,
		Chaos: cfg.Chaos.plan(),
	})
	if err != nil {
		return nil, err
	}
	return &Platform{w: w, nextOwner: mem.OwnerTaskBase + 1}, nil
}

// PublishCommon is how a service provider fills ContainerConfig.Commons,
// as the package example shows. It registers a shared read-only dataset
// (an ML model, a database) available to containers that list it in
// Commons. Under the monitor it becomes a common region backed by one
// physical copy; on a baseline platform it is published as a host file.
func (p *Platform) PublishCommon(name string, data []byte) error {
	return sandbox.CreateCommon(p.w.K, name, data)
}

// Runtime is the in-sandbox API handed to a container's Main.
type Runtime struct {
	c       *sandbox.Container
	os      *libos.OS
	in, out confinedBuf
}

// confinedBuf is a confined buffer reused across calls. The LibOS heap
// never frees, so a fresh buffer per call would exhaust it; a larger one
// is carved only when a call needs more than the buffer holds.
type confinedBuf struct {
	va  paging.Addr
	cap int
}

func (b *confinedBuf) get(os *libos.OS, n int) (paging.Addr, error) {
	if b.va == 0 || b.cap < n {
		va, err := os.Alloc(n)
		if err != nil {
			return 0, err
		}
		b.va, b.cap = va, n
	}
	return b.va, nil
}

// ReceiveInput waits (bounded) for the next client message and returns a
// copy. Returns nil when no input arrives.
func (r *Runtime) ReceiveInput(maxBytes int) ([]byte, error) {
	buf, err := r.in.get(r.os, maxBytes)
	if err != nil {
		return nil, err
	}
	_, n, err := r.os.ReceiveInputInto(buf, maxBytes, 16)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]byte, n)
	r.os.Env.ReadMem(buf, out)
	return out, nil
}

// SendOutput hands a result to the monitor for padded, encrypted delivery.
func (r *Runtime) SendOutput(data []byte) error {
	va, err := r.out.get(r.os, len(data))
	if err != nil {
		return err
	}
	r.os.Env.WriteMem(va, data)
	return r.os.SendOutput(va, len(data))
}

// EndSession terminates the client session; the monitor scrubs all
// confined memory.
func (r *Runtime) EndSession() { r.os.EndSession() }

// Alloc carves confined memory from the pre-declared heap.
func (r *Runtime) Alloc(n int) (paging.Addr, error) { return r.os.Alloc(n) }

// Read copies confined/common memory into a Go buffer.
func (r *Runtime) Read(va paging.Addr, buf []byte) { r.os.Env.ReadMem(va, buf) }

// Write stores a Go buffer into confined memory.
func (r *Runtime) Write(va paging.Addr, data []byte) { r.os.Env.WriteMem(va, data) }

// CommonBase returns the base address of an attached common region.
func (r *Runtime) CommonBase(name string) (paging.Addr, bool) {
	va, ok := r.c.CommonVAs[name]
	return va, ok
}

// Charge accounts compute cycles against the virtual clock (one unit per
// simulated instruction bundle; see internal/costs).
func (r *Runtime) Charge(cycles uint64) { r.os.Env.Charge(cycles) }

// LibOS exposes the full library-OS surface (files, threads, locks).
func (r *Runtime) LibOS() *libos.OS { return r.os }

// ContainerConfig describes a sandbox to launch.
type ContainerConfig struct {
	Name string
	// HeapPages sizes the confined heap (default 256).
	HeapPages uint64
	// Commons lists published datasets to attach read-only.
	Commons []string
	// MaxThreads bounds the LibOS thread pool.
	MaxThreads int
	// Main runs inside the sandbox.
	Main func(r *Runtime)
}

// Container is a launched EREBOR-SANDBOX.
type Container struct {
	inner *sandbox.Container
}

// Launch starts a container. Its Main begins executing at the next Run.
// Containers are owned in launch order, the first by mem.OwnerTaskBase+1.
func (p *Platform) Launch(cfg ContainerConfig) (*Container, error) {
	if cfg.Main == nil {
		return nil, errors.New("erebor: ContainerConfig.Main is required")
	}
	if cfg.HeapPages == 0 {
		cfg.HeapPages = 256
	}
	owner := p.nextOwner
	p.nextOwner++
	var refs []sandbox.CommonRef
	for _, name := range cfg.Commons {
		refs = append(refs, sandbox.CommonRef{Name: name})
	}
	inner, err := sandbox.Launch(p.w.K, sandbox.Spec{
		Name:    cfg.Name,
		Owner:   owner,
		LibOS:   libos.Config{HeapPages: cfg.HeapPages, MaxThreads: cfg.MaxThreads},
		Commons: refs,
		Main: func(c *sandbox.Container, os *libos.OS) {
			cfg.Main(&Runtime{c: c, os: os})
		},
	})
	if err != nil {
		return nil, err
	}
	return &Container{inner: inner}, nil
}

// Status is a container's externally visible state.
type Status struct {
	Destroyed     bool
	KillReason    string
	DataInstalled bool
	ConfinedPages uint64
	Exits         uint64
}

// Status returns the monitor's view of the container (zero Status on a
// baseline platform).
func (c *Container) Status() Status {
	info, ok := c.inner.Info()
	if !ok {
		return Status{}
	}
	return Status{
		Destroyed: info.Destroyed, KillReason: info.KillReason,
		DataInstalled: info.DataInstalled, ConfinedPages: info.ConfinedPages,
		Exits: info.Exits,
	}
}

// Err reports a LibOS boot or common-attachment failure.
func (c *Container) Err() error { return c.inner.BootErr() }

// Client is a remote client bound to one container through an attested
// channel relayed by the untrusted in-CVM proxy.
type Client struct {
	session *harness.Session
}

// Connect performs the attested handshake: the client verifies the quote
// (signature, boot measurement, handshake binding) before any data moves.
// The handshake retries with exponential backoff on the virtual clock, so
// transient relay faults do not surface to the caller.
// Only available with the monitor (attestation needs the tdcall owner).
func (p *Platform) Connect(c *Container) (*Client, error) {
	if p.w.Mon == nil {
		return nil, errors.New("erebor: Connect requires the monitor (not a baseline platform)")
	}
	s := harness.NewSession(p.w)
	if err := s.ConnectResilient(c.inner); err != nil {
		return nil, fmt.Errorf("erebor: attested handshake failed: %w", err)
	}
	return &Client{session: s}, nil
}

// Send queues one confidential request (padded + encrypted end to end).
func (cl *Client) Send(data []byte) error {
	if err := cl.session.Client.Send(data); err != nil {
		return err
	}
	cl.session.Pump(2)
	return nil
}

// SendWithRetry transmits one request, retrying transient backpressure
// (full relay queues) with virtual-clock backoff. Non-transient errors
// surface immediately.
func (cl *Client) SendWithRetry(data []byte) error {
	return cl.session.SendWithRetry(data)
}

// Recv returns the next response, or an error when none is pending.
func (cl *Client) Recv() ([]byte, error) {
	cl.session.Pump(2)
	return cl.session.Client.Recv()
}

// RecvWait pumps the relay and the guest scheduler until a response
// arrives, retransmitting unacknowledged requests on timeout. Returns an
// error wrapping a typed timeout after a bounded number of rounds; it
// never hangs.
func (cl *Client) RecvWait() ([]byte, error) {
	return cl.session.RecvWait()
}

// WireFrames exposes what the untrusted proxy observed (always
// ciphertext); tests use it to check for plaintext leaks.
func (cl *Client) WireFrames() [][]byte { return cl.session.Proxy.Seen }

// Run schedules the platform until every runnable task has finished or
// blocked (containers waiting for input park between sessions).
func (p *Platform) Run() { p.w.K.Schedule() }

// PushInput is the DebugFS evaluation path of §7: it injects a client
// message without a channel. PopOutputs drains channel-less results.
func (p *Platform) PushInput(c *Container, data []byte) error {
	if p.w.Mon == nil {
		p.w.K.DevEmuPush(data)
		return nil
	}
	return p.w.Mon.QueueClientInput(c.inner.ID, data)
}

// PopOutputs is the DebugFS evaluation path of §7: it drains results
// emitted without a live channel.
func (p *Platform) PopOutputs() [][]byte {
	if p.w.Mon == nil {
		return p.w.K.DevEmuOutputs()
	}
	return p.w.Mon.DebugOutputs()
}

// Stats is a snapshot of platform-wide activity. It is JSON-serializable
// with stable snake_case field names; map-valued fields are fresh copies,
// so a retained snapshot never aliases live monitor state.
type Stats struct {
	// MonitorBooted reports whether the platform runs under the Erebor
	// monitor. On a baseline (native) platform it is false and every
	// monitor-derived field below — EMCs, EMCByKind, EMCCyclesByKind,
	// SandboxExits, SandboxKills, QuotesIssued, the Channel* counters and
	// RuntimeViolations — is its zero value by construction, not a partial
	// snapshot: there is no monitor to count them.
	MonitorBooted bool `json:"monitor_booted"`

	EMCs uint64 `json:"emcs"`
	// EMCByKind counts enclave-monitor calls per kind ("nop", "cr", "msr",
	// "sandbox", ...). Nil when the monitor is not booted.
	EMCByKind map[string]uint64 `json:"emc_by_kind,omitempty"`
	// EMCCyclesByKind attributes gate-to-gate virtual cycles per EMC kind;
	// the per-kind sum equals the matching "emc/<kind>" trace histogram's
	// Sum exactly (the recorder never charges the clock).
	EMCCyclesByKind map[string]uint64 `json:"emc_cycles_by_kind,omitempty"`

	SandboxExits  uint64 `json:"sandbox_exits"`
	SandboxKills  uint64 `json:"sandbox_kills"`
	QuotesIssued  uint64 `json:"quotes_issued"`
	Syscalls      uint64 `json:"syscalls"`
	PageFaults    uint64 `json:"page_faults"`
	TimerTicks    uint64 `json:"timer_ticks"`
	VirtualCycles uint64 `json:"virtual_cycles"`

	// Resilience counters (see DESIGN.md, "Fault model & resilience").
	NetDrops           uint64 `json:"net_drops"`           // frames dropped at the bounded host NIC queues
	ChannelErrors      uint64 `json:"channel_errors"`      // transport failures absorbed by the monitor
	ChannelDuplicates  uint64 `json:"channel_duplicates"`  // duplicate records suppressed monitor-side
	ChannelCorrupt     uint64 `json:"channel_corrupt"`     // corrupt/unauthentic records rejected monitor-side
	ChannelRetransmits uint64 `json:"channel_retransmits"` // records re-sent by the monitor on loss evidence
	RuntimeViolations  uint64 `json:"runtime_violations"`  // kernel misbehavior contained by the monitor

	// FaultInjection tallies the chaos schedule's per-class injections.
	// Nil unless the platform was built with PlatformConfig.Chaos.
	FaultInjection *FaultInjectionStats `json:"fault_injection,omitempty"`
}

// FaultInjectionStats mirrors the fault injector's per-class counters.
type FaultInjectionStats struct {
	Drops      uint64 `json:"drops"`
	Duplicates uint64 `json:"duplicates"`
	Reorders   uint64 `json:"reorders"`
	Corrupts   uint64 `json:"corrupts"`
	Truncates  uint64 `json:"truncates"`
	Replays    uint64 `json:"replays"`
	// Latencies counts injected stalls (orthogonal to the wire classes: a
	// delayed frame still relays clean).
	Latencies uint64 `json:"latencies,omitempty"`
	// Passed counts frames relayed clean (no fault fired).
	Passed uint64 `json:"passed"`
}

// Stats snapshots the monitor's and kernel's counters. On a baseline
// platform (no monitor booted) the monitor-derived fields are returned as
// documented zero values with MonitorBooted=false — never a silent partial
// snapshot.
func (p *Platform) Stats() Stats {
	s := Stats{
		Syscalls:      p.w.K.Stats.Syscalls,
		PageFaults:    p.w.K.Stats.PageFaults,
		TimerTicks:    p.w.K.Stats.TimerTicks,
		VirtualCycles: p.w.M.Clock.Now(),
		NetDrops:      p.w.Host.NetDrops,
	}
	if p.w.Mon != nil {
		s.MonitorBooted = true
		s.EMCs = p.w.Mon.Stats.EMCs
		s.EMCByKind = p.w.Mon.EMCByKind()
		s.EMCCyclesByKind = p.w.Mon.EMCCyclesByKind()
		s.SandboxExits = p.w.Mon.Stats.SandboxExits
		s.SandboxKills = p.w.Mon.Stats.SandboxKills
		s.QuotesIssued = p.w.Mon.Stats.QuotesIssued
		s.ChannelErrors = p.w.Mon.Stats.ChannelErrors
		s.RuntimeViolations = p.w.Mon.Stats.RuntimeViolations
		cs := p.w.Mon.ChannelStats()
		s.ChannelDuplicates = cs.Duplicates
		s.ChannelCorrupt = cs.Corrupt
		s.ChannelRetransmits = cs.Retransmits
	}
	if p.w.Inj != nil {
		c := p.w.Inj.Counters
		s.FaultInjection = &FaultInjectionStats{
			Drops: c.Drops, Duplicates: c.Duplicates, Reorders: c.Reorders,
			Corrupts: c.Corrupts, Truncates: c.Truncates, Replays: c.Replays,
			Latencies: c.Latencies, Passed: c.Passed,
		}
	}
	return s
}

// ErrTracingDisabled is returned by the exporters when the platform was
// built without TraceConfig.Enabled.
var ErrTracingDisabled = errors.New("erebor: tracing disabled (set PlatformConfig.Trace.Enabled)")

// TraceEnabled reports whether the flight recorder is attached.
func (p *Platform) TraceEnabled() bool { return p.w.Rec.Enabled() }

// TraceSnapshot copies out the recorder's event ring, oldest first. Nil
// when tracing is disabled.
func (p *Platform) TraceSnapshot() []trace.Event { return p.w.Rec.Snapshot() }

// TraceDropped reports how many events the bounded ring discarded (oldest
// first) since boot or the last reset.
func (p *Platform) TraceDropped() uint64 { return p.w.Rec.Dropped() }

// Histograms returns the per-span log2 latency histograms keyed by span
// label ("emc/nop", "syscall/3", "sandbox/1/exit", ...). Aggregates never
// drop, regardless of ring capacity. Nil when tracing is disabled.
func (p *Platform) Histograms() map[string]metrics.Histogram { return p.w.Rec.Histograms() }

// TraceCounts returns total event tallies keyed by kind (and "kind|label"
// for labeled events). Nil when tracing is disabled.
func (p *Platform) TraceCounts() map[string]uint64 { return p.w.Rec.Counts() }

// TraceSummaries condenses the span histograms into sorted p50/p99
// summaries (cycles and microseconds at the simulated 2.1 GHz).
func (p *Platform) TraceSummaries() []trace.SpanSummary { return p.w.Rec.Summaries() }

// ExportChromeTrace writes the event ring as Chrome trace_event JSON
// (chrome://tracing, Perfetto): one track per sandbox plus monitor, kernel
// and client tracks. Byte-deterministic for a fixed seed and workload.
func (p *Platform) ExportChromeTrace(w io.Writer) error {
	if !p.w.Rec.Enabled() {
		return ErrTracingDisabled
	}
	return p.w.Rec.ExportChromeTrace(w)
}

// ExportPrometheus writes the counters and span histograms in Prometheus
// text exposition format.
func (p *Platform) ExportPrometheus(w io.Writer) error {
	if !p.w.Rec.Enabled() {
		return ErrTracingDisabled
	}
	return p.w.Rec.ExportPrometheus(w)
}

// ExportOpenMetrics writes the platform's telemetry registry — EMC counts
// and cycle attributions, per-tenant phase series, watchdog sweeps, channel
// frame tallies — in the OpenMetrics text exposition format. The registry
// is always live (recording never charges the virtual clock), and the
// output is byte-deterministic per seed.
func (p *Platform) ExportOpenMetrics(w io.Writer) error {
	return p.w.Met.ExportOpenMetrics(w)
}

// ErrNoMonitor is returned by watchdog controls on a baseline platform.
var ErrNoMonitor = errors.New("erebor: no monitor on a baseline platform")

// EnableWatchdog switches on the monitor's continuous invariant watchdog:
// sweeps of the §8 security audit at the given virtual-cycle cadence
// (0 = phase boundaries only) plus at every seal/end/destroy boundary.
// Sweeps read the clock but never charge it.
func (p *Platform) EnableWatchdog(everyCycles uint64) error {
	if p.w.Mon == nil {
		return ErrNoMonitor
	}
	p.w.Mon.EnableWatchdog(everyCycles)
	return nil
}

// WatchdogEvents snapshots the watchdog's typed violation observations (nil
// when the watchdog is disabled or found nothing).
func (p *Platform) WatchdogEvents() []monitor.WatchdogEvent {
	if p.w.Mon == nil {
		return nil
	}
	return p.w.Mon.WatchdogEvents()
}

// ExportWatchdogJSONL writes the watchdog event log as JSON Lines
// (byte-deterministic per seed).
func (p *Platform) ExportWatchdogJSONL(w io.Writer) error {
	if p.w.Mon == nil {
		return ErrNoMonitor
	}
	return p.w.Mon.ExportWatchdogJSONL(w)
}

// RuntimeViolationLog returns the monitor's record of contained kernel
// misbehavior (empty on a baseline platform).
func (p *Platform) RuntimeViolationLog() []string {
	if p.w.Mon == nil {
		return nil
	}
	return p.w.Mon.RuntimeViolations()
}

// Monitor exposes the underlying monitor for advanced use (nil on a
// baseline platform).
func (p *Platform) Monitor() *monitor.Monitor { return p.w.Mon }

// World exposes the underlying simulated world for experiments.
func (p *Platform) World() *harness.World { return p.w }
