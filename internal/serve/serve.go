// Package serve is the multi-tenant session server: it admits many remote
// clients over the virtual clock, runs each tenant in its own
// EREBOR-SANDBOX, and shares one physical copy of the model bytes across
// every tenant through a common region. A sandbox never outlives its
// session: every slot turnover destroys the worker and launches a fresh
// one — a cold boot, or, with Config.ForkPool, a copy-on-write fork of a
// snapshot template.
//
// The server is deterministic by construction: slots are ticked in index
// order, each tick performs a bounded amount of work, all waiting is
// virtual-clock backoff, and tenant requests derive from the configured
// seed. Two runs with the same Config produce byte-identical Reports and
// trace exports — chaos runs included. Chaos (a seeded fault plan on the
// untrusted client<->proxy hop, shared by every session) keeps every
// session bounded — complete or fail typed, never hang — and because
// corrupt/truncate faults mutate handshake frames whose decode outcome
// depends on the bytes under the flip, chaos runs additionally pin the
// handshake entropy (client/server ephemeral keys, quoting key) to the
// fault-plan seed, making fault effects a pure function of the Config too.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/egress"
	"github.com/asterisc-release/erebor-go/internal/entropy"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/slo"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// CommonName is the common region holding the shared model bytes.
const CommonName = "serve-model"

// ErrWorkerDead reports that a slot's sandbox worker terminated while its
// tenant was still waiting for a reply (chaos-induced fatal, C8 kill).
var ErrWorkerDead = errors.New("serve: worker terminated")

// Config sizes a serving run.
type Config struct {
	// Tenants is the number of concurrent sessions (server slots).
	Tenants int
	// Sessions is the total number of tenant sessions to serve
	// (>= Tenants; each slot serves Sessions/Tenants tenants in turn).
	Sessions int
	// Seed parameterizes tenant request payloads (and, through Chaos.Seed,
	// the fault schedule). Same seed, same run.
	Seed int64
	// VCPUs is the number of simulated cores serving the fleet (0 = 1).
	// Slots are spread across cores deterministically (slot index mod
	// VCPUs); the report's wall-clock figures account per-core work as
	// overlapping. Same (Seed, VCPUs), same bytes.
	VCPUs int
	// MemMB sizes the CVM (default 256).
	MemMB uint64
	// InputBytes is the per-tenant request size (default 1024).
	InputBytes int
	// ModelBytes sizes the shared common-region model (default 64 KiB).
	ModelBytes int
	// HeapPages overrides each worker's confined heap (0 = sized to fit
	// the request/response buffers).
	HeapPages uint64
	// ForkPool selects how a slot's worker is built. Off, every session
	// gets a cold-booted sandbox (the paper's one sandbox per session). On,
	// one worker is booted once and frozen into an immutable template (its
	// confined image shared read-only under per-frame refcounts, invariant
	// I9), and every slot — initial launch and every turnover — is
	// instantiated by forking that template. A fork pays O(pages touched)
	// instead of the cold boot's declare+zero, so time-to-first-compute
	// drops far below cold. Either way a turnover destroys the retiring
	// worker first; any denied fork falls back to a cold launch.
	ForkPool bool
	// Chaos, when non-nil, interposes one seeded fault injector on the
	// untrusted hop of every session (the whole fleet draws from a single
	// deterministic schedule).
	Chaos *faultinject.Plan
	// Trace attaches the flight recorder (per-tenant session spans on the
	// server track; sandbox activity on per-sandbox tracks).
	Trace bool
	// TraceCapacity bounds the recorder ring (0 = default).
	TraceCapacity int
	// Watchdog enables the monitor's continuous invariant watchdog for the
	// run: §8 audit sweeps at WatchdogEvery-cycle cadence plus at every
	// seal/end/destroy/fork phase boundary. Sweeps never charge the clock,
	// so a watchdog run is cycle-identical to a watchdog-off run.
	Watchdog bool
	// WatchdogEvery is the sweep cadence in virtual cycles (0 = default).
	WatchdogEvery uint64
	// Egress, when non-nil, arms deny-by-default egress enforcement: every
	// session admission compiles the spec into the tenant's immutable
	// policy, the slot's proxy lanes enforce it on every outbound frame,
	// and the monitor's I8 sweep audits the decision ledger. Each slot
	// additionally models two sandbox-initiated service connections — one
	// to service/model-registry (allowed by the stock spec) and one to
	// peer/exfil (never allowlisted) — so multi-service allow and deny
	// paths are exercised every session. Nil = legacy unpoliced relay.
	Egress *egress.Spec
	// SLO, when non-empty, arms the deterministic SLO engine: objectives
	// are evaluated against the phase-latency histograms at aligned
	// SLOWindow boundaries on the virtual clock. Evaluation is read-only
	// and never charges the clock, so an SLO-monitored run stays
	// cycle-identical to an unmonitored one.
	SLO []slo.Objective
	// SLOWindow is the evaluation cadence in virtual cycles
	// (0 = slo.DefaultWindow).
	SLOWindow uint64
	// Profile attaches the cycle-exact profiler: every virtual cycle charged
	// during Run lands in exactly one (tenant, phase, mechanism-stack)
	// bucket, conserving against the per-(tenant, phase) metrics exactly.
	// Profiling never charges the clock, so a profiled run is
	// cycle-identical (and report-byte-identical) to a bare run.
	Profile bool
}

// Stock egress destinations the serving path models per session.
var (
	// RegistryDest is the approved auxiliary service destination.
	RegistryDest = egress.Dest("service", "model-registry")
	// ExfilDest is the arbitrary peer every policy must deny.
	ExfilDest = egress.Dest("peer", "exfil")
)

// DefaultEgressSpec is the stock serving policy: each tenant may reach its
// own client and the model-registry service, nothing else.
func DefaultEgressSpec() *egress.Spec {
	return egress.MustParseSpec("allow client/self; allow service/model-registry")
}

// DefaultWatchdogEvery is the default cadence between watchdog sweeps:
// ~5 ms of virtual time at the simulated 2.1 GHz.
const DefaultWatchdogEvery = 10_000_000

func (cfg Config) withDefaults() Config {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Sessions < cfg.Tenants {
		cfg.Sessions = cfg.Tenants
	}
	if cfg.VCPUs < 1 {
		cfg.VCPUs = 1
	}
	if cfg.MemMB == 0 {
		cfg.MemMB = 256
	}
	if cfg.InputBytes <= 0 {
		cfg.InputBytes = 1024
	}
	if cfg.ModelBytes <= 0 {
		cfg.ModelBytes = 64 << 10
	}
	if cfg.HeapPages == 0 {
		bufPages := (uint64(cfg.InputBytes)*2 + mem.PageSize - 1) / mem.PageSize
		cfg.HeapPages = bufPages + 24
	}
	if cfg.Watchdog && cfg.WatchdogEvery == 0 {
		cfg.WatchdogEvery = DefaultWatchdogEvery
	}
	return cfg
}

// SessionResult is the outcome of one tenant session.
type SessionResult struct {
	Tenant  int `json:"tenant"`
	Slot    int `json:"slot"`
	Sandbox int `json:"sandbox"`
	// Forked marks a session served by a sandbox forked copy-on-write from
	// the snapshot template (ForkPool runs only).
	Forked bool   `json:"forked,omitempty"`
	Cycles uint64 `json:"cycles"`
	// FirstCompute is the slot's turnaround-to-first-compute window: virtual
	// cycles from the start of the slot's turnaround (teardown of the
	// previous carcass and relaunch) to the worker's first compute step on
	// this session's request. This is the figure the fork pool exists to
	// shrink — it covers the setup each mode actually pays (cold: declare +
	// zero + prefault; fork: O(pages touched) CoW breaks).
	FirstCompute uint64 `json:"first_compute,omitempty"`
	ReplyBytes   int    `json:"reply_bytes"`
	Err          string `json:"err,omitempty"`
}

// Report summarizes a serving run. It is JSON-stable: same Config, same
// bytes.
//
// TotalCycles/CyclesPerSession/SessionsPerSec are wall-clock figures: the
// virtual clock is global and serial, so each round's per-slot work is
// re-attributed to the slot's core and the round's wall cost is the shared
// (relay) work plus the most-loaded core. With VCPUs=1 this equals the
// serial elapsed cycles exactly.
type Report struct {
	Tenants          int     `json:"tenants"`
	VCPUs            int     `json:"vcpus"`
	Sessions         int     `json:"sessions"`
	Completed        int     `json:"completed"`
	Failed           int     `json:"failed"`
	ColdSessions     int     `json:"cold_sessions"`
	Relaunches       int     `json:"relaunches"`
	TotalCycles      uint64  `json:"total_cycles"`
	CyclesPerSession uint64  `json:"cycles_per_session"`
	SessionsPerSec   float64 `json:"sessions_per_sec"`
	SandboxKills     uint64  `json:"sandbox_kills"`
	ChannelRetrans   uint64  `json:"channel_retransmits"`
	// Setup-cost instrumentation: virtual cycles spent strictly inside cold
	// container launches and fork instantiations, plus the mean
	// turnaround-to-first-compute over completed sessions. These are what
	// the fork-pool bench compares side by side.
	LaunchCycles       uint64 `json:"launch_cycles,omitempty"`
	ForkCycles         uint64 `json:"fork_cycles,omitempty"`
	FirstComputeCycles uint64 `json:"first_compute_cycles,omitempty"`
	// Fork-pool figures (omitted when ForkPool is off, keeping legacy
	// reports byte-identical): sessions served by forked sandboxes, total
	// fork instantiations, copy-on-write page breaks, and the template's
	// page count.
	ForkSessions  int    `json:"fork_sessions,omitempty"`
	Forks         uint64 `json:"forks,omitempty"`
	CowBreaks     uint64 `json:"cow_breaks,omitempty"`
	TemplatePages uint64 `json:"template_pages,omitempty"`
	// Egress figures (omitted when Config.Egress is nil, keeping legacy
	// reports byte-identical): ledger allow/deny totals, typed denial
	// frames the sandboxes drained, and denials lost to queue overflow.
	EgressAllowed     uint64          `json:"egress_allowed,omitempty"`
	EgressDenied      uint64          `json:"egress_denied,omitempty"`
	EgressDenialsSeen uint64          `json:"egress_denials_seen,omitempty"`
	EgressDenialDrops uint64          `json:"egress_denial_drops,omitempty"`
	Results           []SessionResult `json:"results"`
}

// JSON renders the report deterministically.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	return b
}

// slot FSM states.
type state int

const (
	stConnect state = iota // attested handshake (one engine step per tick)
	stSend                 // transmit the tenant request
	stWait                 // one engine receive round per tick
)

// svcLane is one auxiliary egress lane modeling a sandbox-initiated
// connection to a fixed destination (a service the policy may allow, or a
// peer it must deny). The server writes the sandbox-side frame; whatever
// the policy lets through lands on sink.
type svcLane struct {
	dest egress.Destination
	pr   *secchan.Proxy
	src  *secchan.MemPipe // sandbox-side end (frames enter here)
	sink *secchan.MemPipe // world-side end (allowed frames arrive here)
}

// slot is one serving lane: the sandbox container of its current worker
// plus the session of the tenant it serves.
type slot struct {
	idx   int
	owner mem.Owner

	c    *sandbox.Container
	sess *harness.Session
	// step is the receive rounds' guest step: one slice of the worker on
	// the slot's home core (built once per slot; see stepWorker).
	step func() error

	state   state
	tenant  int
	served  int  // sessions completed or failed on this slot
	forked  bool // worker instantiated by forking the snapshot template
	request []byte
	start   uint64
	done    bool

	// turnStart opens the turnaround-to-first-compute window: the clock at
	// the start of the turnover (or initial launch) that produced this
	// session's worker. computeAt closes it — stamped by the worker itself
	// at its first compute step on the session's request (reset at
	// admission; reading the clock charges nothing).
	turnStart uint64
	computeAt uint64

	// Egress enforcement state (Config.Egress != nil only).
	policy  *egress.Policy
	svc     []*svcLane
	svcSent bool

	// Span identity (Config.Trace only; all zero otherwise). span is the
	// session's root span, allocated at admission; every phase segment the
	// slot runs parents under it, so the whole session is one tree.
	// pendingRoot pre-allocates the *next* session's root during a
	// relaunch, so launch-phase work parents into the incoming session.
	span        trace.SpanRef
	pendingRoot trace.SpanRef
}

// rootSpan is the span new phase segments should parent under: the next
// session's pre-allocated root during relaunch, else the current one.
func (sl *slot) rootSpan() trace.SpanID {
	if sl.pendingRoot.ID != 0 {
		return sl.pendingRoot.ID
	}
	return sl.span.ID
}

// Server drives a fleet of tenant sessions over one world.
type Server struct {
	cfg   Config
	w     *harness.World
	inj   *faultinject.Injector
	model []byte
	win   []byte // model window replies are XORed with
	slots []*slot

	results    []SessionResult
	completed  int
	failed     int
	relaunches int

	// Fork-pool state (cfg.ForkPool only): the frozen worker template every
	// slot is instantiated from, and the run's fork/setup accounting.
	tmpl            monitor.TemplateID
	forkServed      int
	launchCycles    uint64
	forkCycles      uint64
	firstComputeSum uint64
	firstComputeN   int

	// Egress enforcement state (cfg.Egress != nil only): the I8 ledger the
	// monitor sweeps, typed denials drained back to the sandboxes, denials
	// lost to queue overflow, and per-destination service deliveries.
	ledger       *egress.Ledger
	denialsSeen  uint64
	denialDrops  uint64
	svcDelivered map[string]uint64

	// coreLoad accumulates one round's per-core tick cycles; wall is the
	// overlap-adjusted elapsed total across rounds (see Report).
	coreLoad []uint64
	wall     uint64

	// attrSeg is the open phase-segment span the next setPhase will close.
	// It moves with the world context's Switch, so the span tree and the
	// cycle attribution can never disagree.
	attrSeg trace.SpanRef

	// Deterministic SLO engine (cfg.SLO only): sloNext is the next aligned
	// virtual-clock boundary to evaluate at.
	sloEng  *slo.Engine
	sloNext uint64

	// Cycle profiler (cfg.Profile only): attached to the machine at New,
	// recording between Run's attribution-window edges so stack totals
	// conserve exactly against FamilyTenantPhaseCycles.
	prof *prof.Profiler

	// Hook, when non-nil, runs at the top of every round (before the fleet
	// pump). Tests use it to tamper with machine state mid-serve — e.g.
	// InjectAuditViolation — and assert the watchdog catches it.
	Hook func(round int)
}

// New boots a world, publishes the shared model, and launches one worker
// sandbox per slot.
func New(cfg Config) (*Server, error) {
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("serve: chaos plan: %w", err)
		}
	}
	cfg = cfg.withDefaults()
	wcfg := harness.WorldConfig{
		Mode: kernel.ModeErebor, MemMB: cfg.MemMB, VCPUs: cfg.VCPUs,
		Trace: cfg.Trace, TraceCapacity: cfg.TraceCapacity,
	}
	if cfg.Chaos != nil {
		// Corrupt/truncate faults mutate handshake frames, and whether the
		// mutated bytes still decode depends on the key material under
		// them. Pinning handshake entropy to the fault-plan seed makes the
		// whole chaos run — fault effects included — byte-deterministic
		// across processes (the profiler-determinism CI gate relies on it).
		wcfg.Entropy = entropy.New(cfg.Chaos.Seed)
	}
	w, err := harness.NewWorld(wcfg)
	if err != nil {
		return nil, fmt.Errorf("serve: world boot: %w", err)
	}
	model := make([]byte, cfg.ModelBytes)
	x := uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := range model {
		x = x*6364136223846793005 + 1442695040888963407
		model[i] = byte(x >> 33)
	}
	if err := sandbox.CreateCommon(w.K, CommonName, model); err != nil {
		return nil, fmt.Errorf("serve: publish model: %w", err)
	}
	winLen := cfg.InputBytes
	if winLen > len(model) {
		winLen = len(model)
	}
	s := &Server{cfg: cfg, w: w, model: model, win: model[:winLen],
		coreLoad: make([]uint64, cfg.VCPUs)}
	if cfg.Profile {
		// Attached now so frame pushes stay balanced through template/slot
		// construction; recording only runs between Run's window edges.
		s.prof = prof.New(w.Attr)
		w.M.AttachProfiler(s.prof)
	}
	if cfg.Watchdog {
		w.Mon.EnableWatchdog(cfg.WatchdogEvery)
	}
	if cfg.Egress != nil {
		s.ledger = egress.NewLedger()
		s.svcDelivered = make(map[string]uint64)
		// Wire the ledger into the monitor so every watchdog sweep audits I8.
		w.Mon.Egress = s.ledger
	}
	if cfg.Chaos != nil {
		s.inj = faultinject.New(*cfg.Chaos)
		s.inj.Rec = w.Rec
		// Latency faults stall the virtual clock through the injector's
		// Charge hook; the stall lands inside whatever span is open, so an
		// injected delay shows up on the victim session's critical path.
		s.inj.Charge = w.M.Clock.Charge
	}
	if len(cfg.SLO) > 0 {
		s.sloEng = slo.NewEngine(cfg.SLO, cfg.SLOWindow)
	}
	if cfg.ForkPool {
		if err := s.buildTemplate(); err != nil {
			return nil, fmt.Errorf("serve: fork template: %w", err)
		}
	}
	for i := 0; i < cfg.Tenants; i++ {
		sl := &slot{idx: i, owner: mem.OwnerTaskBase + mem.Owner(1+i), tenant: i}
		sl.step = func() error { return s.stepWorker(sl) }
		sl.turnStart = w.M.Clock.Now()
		c, err := s.launchWorker(sl)
		if err != nil {
			return nil, fmt.Errorf("serve: slot %d launch: %w", i, err)
		}
		sl.c = c
		s.admit(sl)
		s.slots = append(s.slots, sl)
	}
	return s, nil
}

// launchWorker instantiates a slot's worker: a copy-on-write fork of the
// template when the pool has one, a cold container launch otherwise (or
// when the fork is denied).
func (s *Server) launchWorker(sl *slot) (*sandbox.Container, error) {
	if s.tmpl != 0 {
		if c, err := s.launchForked(sl); err == nil {
			return c, nil
		}
	}
	sl.forked = false
	return s.launchContainer(sl)
}

// buildTemplate boots one throwaway worker to the brink of serving — LibOS
// boot, confined declarations, model attachment — then freezes it into the
// snapshot template every slot is forked from. The boot is driven here,
// before any slot exists, so its one-time cost never lands in a session
// window.
func (s *Server) buildTemplate() error {
	ready := false
	spec := s.workerSpec("serve-template", mem.OwnerTaskBase+mem.Owner(1+s.cfg.Tenants), nil)
	spec.Main = func(c *sandbox.Container, os *libos.OS) {
		// The template worker never serves: it exists to run the boot
		// sequence the forks will skip, then parks until the snapshot
		// retires it.
		ready = true
		for {
			os.Env.YieldCPU()
		}
	}
	c, err := sandbox.Launch(s.w.K, spec)
	if err != nil {
		return err
	}
	for i := 0; !ready; i++ {
		if i > 4096 || !s.w.K.StepPid(c.Task.Pid) {
			if berr := c.BootErr(); berr != nil {
				return berr
			}
			return fmt.Errorf("template worker never reached quiescence")
		}
	}
	tid, err := s.w.K.SnapshotSandbox(c.Task, "serve-worker")
	if err != nil {
		return err
	}
	// The snapshot retired the sandbox and its task; the empty address
	// space is all that is left of the boot carcass.
	_ = s.w.Mon.EMCDestroyAS(s.w.Core(), c.Task.P.AS.ASID)
	s.tmpl = tid
	return nil
}

// launchForked instantiates a slot's worker by forking the template: same
// spec as a cold launch, but the address space adopts the template's
// confined image copy-on-write and the LibOS adopts the already-declared
// layout instead of re-booting.
func (s *Server) launchForked(sl *slot) (*sandbox.Container, error) {
	start := s.w.M.Clock.Now()
	c, err := sandbox.Fork(s.w.K, s.tmpl, s.workerSpec(fmt.Sprintf("serve-%d", sl.idx), sl.owner, sl))
	if err != nil {
		return nil, err
	}
	s.forkCycles += s.w.M.Clock.Now() - start
	sl.forked = true
	return c, nil
}

// Template exposes the fork template's identity (0 when ForkPool is off).
func (s *Server) Template() monitor.TemplateID { return s.tmpl }

// ReleaseTemplate destroys the fork template after a run has drained (its
// frames are zeroed and returned to the allocator). Refused by the monitor
// while any fork is still live.
func (s *Server) ReleaseTemplate() error {
	if s.tmpl == 0 {
		return nil
	}
	if err := s.w.K.DestroyTemplate(s.tmpl); err != nil {
		return err
	}
	s.tmpl = 0
	return nil
}

// World exposes the underlying platform (tests, bench wiring).
func (s *Server) World() *harness.World { return s.w }

// Profiler exposes the cycle profiler (nil unless Config.Profile).
func (s *Server) Profiler() *prof.Profiler { return s.prof }

// launchContainer cold-starts a slot's worker sandbox: LibOS boot, model
// attachment, and the persistent request loop. The worker never exits on
// its own — it polls for the next tenant's input forever and is stepped
// one scheduling slice at a time by the server (StepPid round-robin).
func (s *Server) launchContainer(sl *slot) (*sandbox.Container, error) {
	start := s.w.M.Clock.Now()
	c, err := sandbox.Launch(s.w.K, s.workerSpec(fmt.Sprintf("serve-%d", sl.idx), sl.owner, sl))
	if err == nil {
		s.launchCycles += s.w.M.Clock.Now() - start
	}
	return c, err
}

// workerSpec builds the serving worker's sandbox spec. The Main body is
// identical for cold-booted and forked workers: allocation is a pure
// userspace cursor, so a forked worker replaying it from the adopted heap
// base lands on the exact buffer addresses the template's layout holds.
// sl, when non-nil, receives the first-compute timestamp each session.
func (s *Server) workerSpec(name string, owner mem.Owner, sl *slot) sandbox.Spec {
	maxMsg := s.cfg.InputBytes
	return sandbox.Spec{
		Name:        name,
		Owner:       owner,
		BudgetPages: s.cfg.HeapPages + 16,
		LibOS:       libos.Config{HeapPages: s.cfg.HeapPages, MaxThreads: 1},
		Commons:     []sandbox.CommonRef{{Name: CommonName}},
		Main: func(c *sandbox.Container, os *libos.OS) {
			e := os.Env
			inVA, err := os.Alloc(maxMsg)
			if err != nil {
				e.Fatal(137, "serve worker: input buffer: "+err.Error())
			}
			outVA, err := os.Alloc(maxMsg)
			if err != nil {
				e.Fatal(137, "serve worker: output buffer: "+err.Error())
			}
			modelVA := c.CommonVAs[CommonName]
			in := make([]byte, maxMsg)
			out := make([]byte, maxMsg)
			win := make([]byte, len(s.win))
			// The buffers above are allocated exactly once per worker:
			// the confined heap is monotonic.
			for {
				_, n, rerr := os.ReceiveInputInto(inVA, maxMsg, 0)
				if rerr != nil {
					e.Fatal(137, "serve worker: receive: "+rerr.Error())
				}
				if n == 0 {
					e.YieldCPU()
					continue
				}
				// First compute step on this session's request: close the
				// slot's turnaround-to-first-compute window (clock read,
				// charges nothing).
				if sl != nil && sl.computeAt == 0 {
					sl.computeAt = s.w.M.Clock.Now()
				}
				// Bind this tenant to the shared model: read the window
				// through the common mapping (demand-faulted, sealed RO).
				e.ReadMem(modelVA, win)
				e.ReadMem(inVA, in[:n])
				xorWindow(out[:n], in[:n], win)
				e.Charge(uint64(n) * 2)
				e.WriteMem(outVA, out[:n])
				if serr := os.SendOutput(outVA, n); serr != nil {
					e.Fatal(137, "serve worker: send: "+serr.Error())
				}
			}
		},
	}
}

// admit binds the slot to its current tenant: fresh session plumbing,
// deterministic request bytes, FSM reset. With egress armed, admission is
// also where the tenant's policy is compiled (immutable for the session's
// lifetime), registered as the I8 audit ground truth, and installed on
// every lane the session may egress through.
func (s *Server) admit(sl *slot) {
	// Session root span: adopt the root pre-allocated by a relaunch (so
	// launch work already parents here), else mint a fresh one.
	if sl.pendingRoot.ID != 0 {
		sl.span = sl.pendingRoot
		sl.pendingRoot = trace.SpanRef{}
	} else {
		sl.span = s.w.Rec.NewSpanUnder(0)
	}
	sl.sess = harness.NewInjectedSession(s.w, s.inj)
	sl.state = stConnect
	sl.request = s.requestFor(sl.tenant)
	sl.start = s.w.M.Clock.Now()
	sl.computeAt = 0
	sl.svcSent = false
	sl.svc = nil
	sl.policy = nil
	if s.cfg.Egress == nil {
		return
	}
	sl.policy = s.cfg.Egress.CompileFor(sl.tenant)
	s.ledger.Register(sl.tenant, sl.policy)
	s.armLane(sl, sl.sess.Proxy, egress.ClientDest(sl.tenant))
	for _, dest := range []egress.Destination{RegistryDest, ExfilDest} {
		sink, outer := secchan.NewMemPipe()
		inner, src := secchan.NewMemPipe()
		pr := &secchan.Proxy{Outer: outer, Inner: inner, Met: s.w.Met}
		s.armLane(sl, pr, dest)
		sl.svc = append(sl.svc, &svcLane{dest: dest, pr: pr, src: src, sink: sink})
	}
}

// armLane installs the slot's compiled policy on one proxy lane.
func (s *Server) armLane(sl *slot, pr *secchan.Proxy, dest egress.Destination) {
	pr.Policy = sl.policy
	pr.Dest = dest
	pr.Tenant = sl.tenant
	pr.Denials = secchan.NewDenialQueue(0)
	pr.Ledger = s.ledger
	pr.Rec = s.w.Rec
	if s.inj != nil {
		s.inj.BindProxy(pr)
	}
}

// requestFor derives tenant t's request payload from the seed.
func (s *Server) requestFor(t int) []byte {
	req := make([]byte, s.cfg.InputBytes)
	x := uint64(s.cfg.Seed)*0xBF58476D1CE4E5B9 + uint64(t)*0x94D049BB133111EB + 0x2545F4914F6CDD1D
	for i := range req {
		x = x*6364136223846793005 + 1442695040888963407
		req[i] = byte(x >> 33)
	}
	return req
}

// phaseOf maps a slot FSM state to its attribution phase.
func phaseOf(st state) string {
	switch st {
	case stConnect:
		return metrics.PhaseHandshake
	case stSend:
		return metrics.PhaseInstall
	default:
		return metrics.PhaseCompute
	}
}

// setPhase is one switch of the world's execution context: Attr.Switch
// flushes the cycles (and shootdown cycles) since the last switch to the
// previous (tenant, phase) series and binds the new pair, which the
// monitor, kernel, secchan and profiler read. Reading the clock charges
// nothing, so attribution is cycle-neutral. phase "" parks (nothing
// accumulates until the next setPhase).
//
// Each contiguous (tenant, phase) stretch is also one KindPhase segment
// span parented under the slot's session root (0/fleet-rooted when sl is
// nil), and the switch makes the open segment the span scope — so every
// event the monitor/kernel/secchan record while the slot runs lands in
// exactly one session's tree. Segments that covered zero cycles and
// recorded no children are suppressed, keeping the ring to segments that
// explain something.
func (s *Server) setPhase(sl *slot, tenant int, phase string) {
	prev := s.w.Attr.Phase
	if seg := s.attrSeg; seg.ID != 0 {
		now := s.w.M.Clock.Now()
		if now > seg.Start || s.w.Rec.Seq() != seg.Mark {
			s.w.Rec.EndSpanAt(seg, trace.KindPhase, trace.TrackServer, prev, now)
		}
	}
	s.attrSeg = trace.SpanRef{}
	if phase != "" {
		var root trace.SpanID
		if sl != nil {
			root = sl.rootSpan()
		}
		s.attrSeg = s.w.Rec.NewSpanUnder(root)
	}
	s.w.Attr.Switch(tenant, phase, uint64(s.attrSeg.ID))
}

// Run serves every session to completion (or typed failure) and returns
// the report. It never hangs: every wait is bounded, and a global round
// budget fails any still-pending session with a typed stall error.
func (s *Server) Run() (*Report, error) {
	perSlot := (s.cfg.Sessions+s.cfg.Tenants-1)/s.cfg.Tenants + 1
	perSession := harness.MaxAttempts*(harness.RecvRounds+8) + 4*harness.RecvRounds + 256
	maxRounds := 256 + 8*perSlot*perSession

	mux := &secchan.MuxProxy{}
	clock := &s.w.M.Clock
	if s.sloEng != nil && s.sloNext == 0 {
		// First evaluation boundary: the next aligned multiple of the
		// window after boot — alignment is what makes the evaluation
		// stream a pure function of (seed, config).
		w := s.sloEng.Window()
		s.sloNext = (clock.Now()/w + 1) * w
	}
	// The recording window opens with the context's first attribution
	// window and closes at its park, so profiler stack totals and
	// FamilyTenantPhaseCycles count exactly the same Charge calls.
	s.prof.Start()
	s.setPhase(nil, metrics.NoTenant, metrics.PhaseFleet)
	for round := 0; ; round++ {
		if s.Hook != nil {
			s.Hook(round)
		}
		roundStart := clock.Now()
		for i := range s.coreLoad {
			s.coreLoad[i] = 0
		}
		// Fleet relay: pump every active lane before ticking the slots, so
		// frames produced last round are visible to this round's FSM steps.
		mux.Reset()
		active := 0
		for _, sl := range s.slots {
			if !sl.done {
				active++
				mux.Add(sl.sess.Proxy)
				for _, v := range sl.svc {
					mux.Add(v.pr)
				}
			}
		}
		if active == 0 {
			break
		}
		mux.PumpAll(8)
		// Drain typed denials and delivered service frames in slot order so
		// egress accounting is deterministic.
		for _, sl := range s.slots {
			if !sl.done {
				s.harvestEgress(sl)
			}
		}
		for _, sl := range s.slots {
			if !sl.done {
				s.setPhase(sl, sl.tenant, phaseOf(sl.state))
				tickStart := clock.Now()
				s.tick(sl)
				s.coreLoad[sl.idx%s.cfg.VCPUs] += clock.Now() - tickStart
				s.setPhase(nil, metrics.NoTenant, metrics.PhaseFleet)
			}
		}
		if round >= maxRounds {
			for _, sl := range s.slots {
				if !sl.done {
					s.fail(sl, fmt.Errorf("serve: server stalled after %d rounds: %w",
						maxRounds, secchan.ErrTimeout))
				}
			}
		}
		// Wall accounting: the virtual clock ran every tick serially, but
		// ticks on different cores overlap in wall time. A round costs its
		// shared (relay/bookkeeping) cycles plus the busiest core's load —
		// with one vCPU that is exactly the serial round.
		roundTotal := clock.Now() - roundStart
		var sum, max uint64
		for _, l := range s.coreLoad {
			sum += l
			if l > max {
				max = l
			}
		}
		s.wall += roundTotal - sum + max
		// SLO boundaries are evaluated at round granularity: every aligned
		// window boundary the round crossed gets one evaluation, stamped
		// with the boundary (not the current clock), so the report stream
		// is identical however rounds happen to straddle windows.
		if s.sloEng != nil {
			for now := clock.Now(); s.sloNext <= now; s.sloNext += s.sloEng.Window() {
				s.sloEng.Evaluate(s.w.Met, s.sloNext)
			}
		}
	}
	// Park the context: the trailing fleet window flushes and attribution
	// goes inert, so per-tenant phase cycles sum exactly to Run()'s elapsed
	// total.
	s.setPhase(nil, metrics.NoTenant, "")
	s.prof.Stop()
	// The flight recorder recycles its ring slots in place, so its fill is
	// published once, here, beside the queue-depth watermarks: every
	// export of the registry after Run (-metrics, /metrics) carries it.
	if s.w.Rec.Enabled() {
		s.w.Met.SetMax(metrics.FamilyHighWater, uint64(s.w.Rec.HighWater()),
			metrics.KV("resource", metrics.ResourceTraceRing))
	}
	if s.sloEng != nil {
		s.sloEng.Final(s.w.Met, s.w.M.Clock.Now())
	}

	return s.report(), nil
}

// tick advances one slot's session FSM by one bounded step: a handshake
// attempt or a receive round of the session's retry engine, or the send.
func (s *Server) tick(sl *slot) {
	switch sl.state {
	case stConnect:
		done, err := sl.sess.ConnectStep(sl.c)
		if err != nil {
			s.fail(sl, fmt.Errorf("serve: %w", err))
		} else if done {
			sl.state = stSend
		}

	case stSend:
		if err := sl.sess.SendWithRetry(sl.request); err != nil {
			s.fail(sl, fmt.Errorf("serve: request send: %w", err))
			return
		}
		// With egress armed, the session also opens its service connections:
		// one frame to the approved registry (egresses), one to an arbitrary
		// peer (typed denial, never crosses). Emitted exactly once per
		// session, right after the request is committed.
		if !sl.svcSent {
			sl.svcSent = true
			for _, v := range sl.svc {
				_ = v.src.Send([]byte(fmt.Sprintf("svc/%d/%s", sl.tenant, v.dest)))
			}
		}
		sl.state = stWait
		// Time-to-first-compute: the request is committed and the worker is
		// about to take its first compute step. Observed exactly once per
		// session, tagged with the root span ID so a p99 exemplar resolves
		// to the session's tree.
		s.w.Met.ObserveEx(metrics.FamilyTTFC, s.w.M.Clock.Now()-sl.start,
			uint64(sl.span.ID))

	case stWait:
		msg, err := sl.sess.RecvStep(sl.step)
		if err == nil {
			s.finish(sl, msg)
		} else if !errors.Is(err, secchan.ErrEmpty) {
			s.fail(sl, fmt.Errorf("serve: %w", err))
		}
	}
}

// stepWorker runs one fair scheduling slice of the slot's worker on the
// slot's home core (deterministic slot→core spread), interleaved with
// every other tenant's worker, and reports a worker that has died.
func (s *Server) stepWorker(sl *slot) error {
	s.w.K.StepPidOn(sl.c.Task.Pid, sl.idx%s.cfg.VCPUs)
	if sl.c.Task.State != kernel.TaskZombie {
		return nil
	}
	reason := sl.c.Task.ExitReason
	if berr := sl.c.BootErr(); berr != nil {
		reason = berr.Error()
	}
	return fmt.Errorf("worker died: %s: %w", reason, ErrWorkerDead)
}

// xorWindow sets dst[i] to src[i] XOR win[i%len(win)], walking src one
// window at a time so that no byte pays an integer division. win must not
// be empty (New clamps it to at least one byte).
func xorWindow(dst, src, win []byte) {
	for base := 0; base < len(src); base += len(win) {
		s := src[base:min(base+len(win), len(src))]
		d, w := dst[base:base+len(s)], win[:len(s)]
		for i := range s {
			d[i] = s[i] ^ w[i]
		}
	}
}

// checkReply checks a worker's answer against the request XORed with the
// model window, walked as in xorWindow, and reports the first byte that
// differs.
func checkReply(msg, req, win []byte) error {
	if len(msg) != len(req) {
		return fmt.Errorf("serve: reply length %d, want %d", len(msg), len(req))
	}
	for base := 0; base < len(msg); base += len(win) {
		m := msg[base:min(base+len(win), len(msg))]
		r, w := req[base:base+len(m)], win[:len(m)]
		for i := range m {
			if m[i] != r[i]^w[i] {
				return fmt.Errorf("serve: reply byte %d mismatch", base+i)
			}
		}
	}
	return nil
}

// finish validates and records a completed session, then turns the slot
// over to its next tenant.
func (s *Server) finish(sl *slot, msg []byte) {
	if err := checkReply(msg, sl.request, s.win); err != nil {
		s.fail(sl, err)
		return
	}
	s.setPhase(sl, sl.tenant, metrics.PhaseOutput)
	cycles := s.w.M.Clock.Now() - sl.start
	tenant := metrics.TenantLabelOf(sl.tenant)
	s.w.Met.Inc(metrics.FamilySessions,
		metrics.KV("outcome", "ok"), metrics.KV("tenant", tenant))
	s.w.Met.Observe(metrics.FamilySessionCycles, cycles, metrics.KV("tenant", tenant))
	s.endSessionSpan(sl)
	var firstCompute uint64
	if sl.computeAt > sl.turnStart {
		firstCompute = sl.computeAt - sl.turnStart
		s.firstComputeSum += firstCompute
		s.firstComputeN++
	}
	s.results = append(s.results, SessionResult{
		Tenant: sl.tenant, Slot: sl.idx, Sandbox: int(sl.c.ID),
		Forked: sl.forked, Cycles: cycles,
		FirstCompute: firstCompute, ReplyBytes: len(msg),
	})
	s.completed++
	if sl.forked {
		s.forkServed++
	}
	s.turnover(sl, true)
}

// endSessionSpan records the session's root span, covering admission to
// now. Recorded for completed AND failed sessions — a root is what keeps
// the session's phase segments from orphaning in the reconstructed forest.
func (s *Server) endSessionSpan(sl *slot) {
	root := sl.span
	root.Start = sl.start
	s.w.Rec.EndSpan(root, trace.KindServeSession, trace.TrackServer,
		fmt.Sprintf("serve/tenant/%d", sl.tenant))
}

// sessionPhases are the in-session phases fed to the latency histograms,
// in canonical order. Launch precedes admission and recycle follows
// observation, so neither belongs in a serving-latency objective.
var sessionPhases = []string{
	metrics.PhaseHandshake, metrics.PhaseInstall,
	metrics.PhaseCompute, metrics.PhaseOutput,
}

// observeSessionPhases feeds a completed session's per-phase cycle totals
// into the phase-latency histograms, each observation tagged with the
// session's root span ID — the exemplar an SLO tail report resolves back
// to a span tree. A tenant index names one session, so the tenant's
// attributed cycles are that session's.
func (s *Server) observeSessionPhases(sl *slot) {
	tenant := metrics.KV("tenant", metrics.TenantLabelOf(sl.tenant))
	for _, ph := range sessionPhases {
		if v := s.w.Met.Value(metrics.FamilyTenantPhaseCycles, metrics.KV("phase", ph), tenant); v > 0 {
			s.w.Met.ObserveEx(metrics.FamilyPhaseLatency, v, uint64(sl.span.ID),
				metrics.KV("phase", ph))
		}
	}
}

// SLO exposes the run's SLO engine (nil when Config.SLO was empty).
func (s *Server) SLO() *slo.Engine { return s.sloEng }

// fail records a typed session failure and turns the slot over.
func (s *Server) fail(sl *slot, err error) {
	cycles := s.w.M.Clock.Now() - sl.start
	s.endSessionSpan(sl)
	s.w.Met.Inc(metrics.FamilySessions,
		metrics.KV("outcome", "fail"), metrics.KV("tenant", metrics.TenantLabelOf(sl.tenant)))
	s.results = append(s.results, SessionResult{
		Tenant: sl.tenant, Slot: sl.idx, Sandbox: int(sl.c.ID),
		Forked: sl.forked, Cycles: cycles, Err: err.Error(),
	})
	s.failed++
	s.turnover(sl, false)
}

// harvestEgress drains one slot's egress side-effects: typed denial frames
// queued back toward the sandbox, and service frames the policy let
// through. Deterministic (FIFO queues, fixed lane order); no-op with
// egress disarmed.
func (s *Server) harvestEgress(sl *slot) {
	if s.cfg.Egress == nil || sl.sess == nil {
		return
	}
	lanes := []*secchan.Proxy{sl.sess.Proxy}
	for _, v := range sl.svc {
		lanes = append(lanes, v.pr)
	}
	for _, pr := range lanes {
		for {
			if _, ok := pr.Denials.Pop(); !ok {
				break
			}
			s.denialsSeen++
		}
	}
	for _, v := range sl.svc {
		for {
			if _, err := v.sink.Recv(); err != nil {
				break
			}
			s.svcDelivered[v.dest.String()]++
		}
	}
}

// retireEgress settles a session's egress state before its lanes are
// replaced at turnover: pump the lanes dry (bounded), drain the last
// denials/deliveries, and accumulate denial-queue overflow into the run
// totals.
func (s *Server) retireEgress(sl *slot) {
	if s.cfg.Egress == nil || sl.sess == nil {
		return
	}
	for i := 0; i < 8; i++ {
		moved := sl.sess.Proxy.PumpOnce()
		for _, v := range sl.svc {
			if v.pr.PumpOnce() {
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	s.harvestEgress(sl)
	s.denialDrops += sl.sess.Proxy.Stats().DenialDrops
	for _, v := range sl.svc {
		s.denialDrops += v.pr.Stats().DenialDrops
	}
}

// turnover retires the finished session and prepares the slot for its next
// tenant: the retiring worker is destroyed and a fresh one launched — a
// fork of the template in ForkPool mode, a cold boot otherwise. No worker
// serves two tenants, so nothing a session leaves behind (a half-finished
// request, coroutine-local buffers, a loop position) can reach the next
// tenant's channel, whether the session completed or failed.
func (s *Server) turnover(sl *slot, clean bool) {
	// Open the next session's turnaround-to-first-compute window: everything
	// from here to the worker's first compute step is setup the next tenant
	// waits behind.
	sl.turnStart = s.w.M.Clock.Now()
	s.retireEgress(sl)
	// The retiring tenant owns the teardown work (scrub, shootdowns,
	// destroy-AS) — it is the cost of *their* confidentiality cleanup.
	s.setPhase(sl, sl.tenant, metrics.PhaseRecycle)
	// The recycle transition above flushed the output phase, so the
	// session's per-phase totals are final; feed the latency histograms
	// (clean completions only — a failed session's phase split reflects
	// where it died, not serving latency).
	if clean {
		s.observeSessionPhases(sl)
	}
	sl.served++
	next := sl.idx + sl.served*s.cfg.Tenants
	if next >= s.cfg.Sessions {
		// Slot drained: end the worker cleanly so its confined memory is
		// scrubbed and released.
		if sl.c.Task.State != kernel.TaskZombie {
			s.w.K.KillTask(sl.c.Task, 0, "serve: slot drained")
		}
		sl.done = true
		return
	}

	// Teardown: destroy the carcass completely. For a forked worker this
	// releases its CoW claim — private broken pages are freed, shared frames
	// drop their refcount back toward the template's baseline.
	info, _ := sl.c.Info()
	asid := sl.c.Task.P.AS.ASID
	if sl.c.Task.State != kernel.TaskZombie {
		s.w.K.KillTask(sl.c.Task, 0, "serve: cold teardown")
	} else if !info.Destroyed {
		_ = s.w.Mon.EMCSandboxEnd(s.w.Core(), sl.c.ID)
	}
	_ = s.w.Mon.EMCDestroyAS(s.w.Core(), asid)
	// Relaunch (a fresh fork when the pool has a template, a cold boot
	// otherwise) is the incoming tenant's setup cost — and the incoming
	// session's causal prologue: pre-allocate its root so the launch
	// segment parents into the tree admit() will adopt.
	sl.pendingRoot = s.w.Rec.NewSpanUnder(0)
	s.setPhase(sl, next, metrics.PhaseLaunch)
	c, err := s.launchWorker(sl)
	if err != nil {
		// Irrecoverable slot: fail its remaining tenants typed, no hangs.
		for t := next; t < s.cfg.Sessions; t += s.cfg.Tenants {
			s.results = append(s.results, SessionResult{
				Tenant: t, Slot: sl.idx,
				Err: fmt.Sprintf("serve: slot relaunch failed: %v", err),
			})
			s.failed++
		}
		sl.done = true
		return
	}
	sl.c = c
	if !sl.forked {
		s.relaunches++
	}
	sl.tenant = next
	s.admit(sl)
}

// report assembles the final Report (results sorted by tenant). The
// headline cycle figures use the overlap-adjusted wall total; with one vCPU
// it equals the serial elapsed cycles exactly.
func (s *Server) report() *Report {
	sort.Slice(s.results, func(i, j int) bool { return s.results[i].Tenant < s.results[j].Tenant })
	total := s.wall
	rep := &Report{
		Tenants: s.cfg.Tenants, VCPUs: s.cfg.VCPUs, Sessions: s.cfg.Sessions,
		Completed: s.completed, Failed: s.failed,
		ColdSessions: s.completed - s.forkServed,
		Relaunches:   s.relaunches,
		TotalCycles:  total,
		LaunchCycles: s.launchCycles,
		ForkCycles:   s.forkCycles,
		ForkSessions: s.forkServed,
		Results:      s.results,
	}
	if s.firstComputeN > 0 {
		rep.FirstComputeCycles = s.firstComputeSum / uint64(s.firstComputeN)
	}
	rep.SandboxKills = s.w.Mon.Stats.SandboxKills
	rep.ChannelRetrans = s.w.Mon.ChannelStats().Retransmits
	rep.Forks = s.w.Mon.Stats.SandboxForks
	rep.CowBreaks = s.w.Mon.Stats.CowBreaks
	if s.tmpl != 0 {
		if ti, ok := s.w.Mon.TemplateInfo(s.tmpl); ok {
			rep.TemplatePages = ti.Pages
		}
	}
	if s.ledger != nil {
		rep.EgressAllowed, rep.EgressDenied = s.ledger.Counts()
		rep.EgressDenialsSeen = s.denialsSeen
		rep.EgressDenialDrops = s.denialDrops
	}
	if n := s.completed + s.failed; n > 0 {
		rep.CyclesPerSession = total / uint64(n)
	}
	if total > 0 {
		rep.SessionsPerSec = float64(s.completed) / (float64(total) / float64(costs.HzPerSecond))
	}
	return rep
}

// PhaseRow is one tenant's causal cycle breakdown across session phases.
// Tenant -1 is the fleet row: shared relay/bookkeeping work that belongs to
// no single tenant.
type PhaseRow struct {
	Tenant int `json:"tenant"`
	// Cycles maps phase name -> virtual cycles attributed to this tenant in
	// that phase.
	Cycles map[string]uint64 `json:"cycles"`
	// Total sums the row; summing Total across all rows reproduces the
	// serial elapsed cycles of Run() exactly (conservation by construction).
	Total uint64 `json:"total"`
	// Shootdown is the TLB-shootdown share of the row (informational: these
	// cycles are already inside the phase figures, not in addition to them).
	Shootdown uint64 `json:"shootdown"`
}

// PhaseBreakdown reads the per-tenant phase attribution out of the registry,
// sorted by tenant with the fleet row (-1) first. Call after Run.
func (s *Server) PhaseBreakdown() []PhaseRow {
	rows := make(map[int]*PhaseRow)
	get := func(tenant int) *PhaseRow {
		r := rows[tenant]
		if r == nil {
			r = &PhaseRow{Tenant: tenant, Cycles: make(map[string]uint64)}
			rows[tenant] = r
		}
		return r
	}
	for _, sv := range s.w.Met.Series(metrics.FamilyTenantPhaseCycles) {
		var tenant, phase = metrics.NoTenant, ""
		for _, l := range sv.Labels {
			switch l.Key {
			case "tenant":
				tenant, _ = strconv.Atoi(l.Value)
			case "phase":
				phase = l.Value
			}
		}
		r := get(tenant)
		r.Cycles[phase] += sv.Value
		r.Total += sv.Value
	}
	for _, sv := range s.w.Met.Series(metrics.FamilyShootdownCycles) {
		for _, l := range sv.Labels {
			if l.Key == "tenant" {
				t, _ := strconv.Atoi(l.Value)
				get(t).Shootdown += sv.Value
			}
		}
	}
	out := make([]PhaseRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Ledger exposes the egress decision ledger (nil when egress is disarmed).
func (s *Server) Ledger() *egress.Ledger { return s.ledger }

// ServiceDeliveries reports how many service frames actually egressed, per
// destination label (empty when egress is disarmed).
func (s *Server) ServiceDeliveries() map[string]uint64 {
	out := make(map[string]uint64, len(s.svcDelivered))
	for k, v := range s.svcDelivered {
		out[k] = v
	}
	return out
}

// ExportEgressJSONL writes the egress decision log as JSON Lines (byte-
// deterministic per seed; empty output when egress is disarmed).
func (s *Server) ExportEgressJSONL(w io.Writer) error {
	if s.ledger == nil {
		return nil
	}
	return s.ledger.ExportJSONL(w)
}

// Run boots a server for cfg and drives it to completion.
func Run(cfg Config) (*Report, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
