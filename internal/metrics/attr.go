package metrics

import "strconv"

// Well-known registry families. Exporters append `_total` to counters, so
// e.g. FamilyEMC surfaces as `erebor_emc_total` in OpenMetrics output.
const (
	// FamilyEMC counts EMC gate entries, labeled {kind}.
	FamilyEMC = "erebor_emc"
	// FamilyEMCCycles attributes gate-to-gate virtual cycles, labeled {kind}.
	FamilyEMCCycles = "erebor_emc_cycles"
	// FamilyTenantEMCCycles splits EMC gate cycles by the tenant whose
	// session was being served, labeled {tenant, kind}. Only written while
	// an attribution context names a tenant.
	FamilyTenantEMCCycles = "erebor_tenant_emc_cycles"
	// FamilyTenantPhaseCycles is the serving path's causal breakdown:
	// virtual cycles per tenant per session phase, labeled {tenant, phase}.
	FamilyTenantPhaseCycles = "erebor_tenant_phase_cycles"
	// FamilyTenantDispatchCycles attributes kernel scheduler slices,
	// labeled {tenant}.
	FamilyTenantDispatchCycles = "erebor_tenant_dispatch_cycles"
	// FamilyWatchdogSweeps counts invariant sweeps, labeled {trigger}.
	FamilyWatchdogSweeps = "erebor_watchdog_sweeps"
	// FamilyWatchdogViolations counts violations found by sweeps, labeled
	// {code, severity}.
	FamilyWatchdogViolations = "erebor_watchdog_violations"
	// FamilyRuntimeViolations counts kernel misbehavior contained at the
	// interpose boundary (no labels).
	FamilyRuntimeViolations = "erebor_runtime_violations"
	// FamilySessions counts completed serve sessions, labeled
	// {tenant, outcome}.
	FamilySessions = "erebor_sessions"
	// FamilySessionCycles is the per-session latency histogram in virtual
	// cycles, labeled {tenant}.
	FamilySessionCycles = "erebor_session_cycles"
	// FamilyShootdownCycles attributes TLB-shootdown overhead, labeled
	// {tenant} ("-1" for unattributed).
	FamilyShootdownCycles = "erebor_shootdown_cycles"
	// FamilyChannelFrames counts secure-channel frame events, labeled
	// {dir, tenant}: dir is send/recv/retransmit/drop, tenant is the session
	// attribution at frame time ("-1" outside serving).
	FamilyChannelFrames = "erebor_channel_frames"
	// FamilyEgressDecisions counts egress policy decisions at the proxy
	// edge, labeled {tenant, rule, verdict}.
	FamilyEgressDecisions = "erebor_egress_decisions"
	// FamilyProxyFrames counts per-frame proxy relay outcomes, labeled
	// {dir, outcome}: dir is ingress/egress, outcome is
	// forwarded/dropped/denied.
	FamilyProxyFrames = "erebor_proxy_frames"
	// FamilyPhaseLatency is the per-session phase-latency histogram in
	// virtual cycles, labeled {phase}: each completed session observes its
	// total cycles spent per phase, with the session's root span ID as the
	// bucket exemplar. The SLO engine evaluates per-phase objectives
	// against it.
	FamilyPhaseLatency = "erebor_phase_latency_cycles"
	// FamilyTTFC is the time-to-first-compute histogram in virtual cycles
	// (no labels): admission to the first compute-phase step, exemplared by
	// the session's root span ID. ROADMAP item 3's p99 SLO reads it.
	FamilyTTFC = "erebor_ttfc_cycles"
	// FamilyEMCRingDepth is the histogram of submission-ring depths observed
	// at drain time (entries consumed per gate crossing).
	FamilyEMCRingDepth = "erebor_emc_ring_depth"
	// FamilyEMCRingDrains counts submission-ring drains, labeled {outcome}:
	// committed, or rejected when validation refused the batch.
	FamilyEMCRingDrains = "erebor_emc_ring_drains"
	// FamilyEMCRingOps counts ring entries committed by drains, labeled
	// {op} (map/unmap/protect/reclaim).
	FamilyEMCRingOps = "erebor_emc_ring_ops"
	// FamilyRingCoalescedIPIs counts shootdown IPIs issued by drain-time
	// coalesced invalidation sets (at most one per remote core per drain),
	// and the IPIs the coalescing skipped, labeled {result: sent|skipped}.
	FamilyRingCoalescedIPIs = "erebor_ring_coalesced_ipis"
	// FamilySnapshots counts sandboxes frozen into immutable fork templates
	// (no labels).
	FamilySnapshots = "erebor_sandbox_snapshots"
	// FamilyForks counts sandboxes instantiated copy-on-write from a
	// snapshot template, labeled {template}.
	FamilyForks = "erebor_sandbox_forks"
	// FamilyCowBreaks counts first-write page copies on forked sandboxes
	// (copy + re-key restoring the single-mapping invariant), labeled
	// {template}.
	FamilyCowBreaks = "erebor_cow_breaks"
	// FamilyHighWater is the high-watermark gauge for bounded resources,
	// labeled {resource}: the maximum occupancy ever observed (written via
	// Registry.SetMax). Resources: emc-ring-depth, proxy-queue, nic-queue,
	// trace-ring.
	FamilyHighWater = "erebor_highwater"
)

// FamilyHighWater resource label values.
const (
	ResourceEMCRingDepth = "emc-ring-depth"
	ResourceProxyQueue   = "proxy-queue"
	ResourceNICQueue     = "nic-queue"
	ResourceTraceRing    = "trace-ring"
)

// Session phases used in FamilyTenantPhaseCycles labels. The serving loop
// attributes every cycle of Server.Run to exactly one (tenant, phase) pair;
// PhaseFleet covers shared work (mux pumping, admission) that belongs to no
// single tenant.
const (
	PhaseHandshake = "handshake"
	PhaseInstall   = "install"
	PhaseCompute   = "compute"
	PhaseOutput    = "output"
	PhaseRecycle   = "recycle"
	PhaseLaunch    = "launch"
	PhaseFleet     = "fleet"
)

// NoTenant is the Attr.Tenant value meaning "no tenant context".
const NoTenant = -1

// Attr is the world's single execution context: the (tenant, phase) pair
// the machine is working for, the trace span scope, the profiler's
// mechanism frames, the attribution window the last Switch opened and the
// TLB-shootdown cycles charged inside it. harness.NewWorld creates one per
// world and the machine holds it, so the serving loop, secchan, the
// monitor's EMC gates, kernel dispatch, the flight recorder and the cycle
// profiler all read the same one. It is a plain shared struct, not a lock:
// the simulation is single-threaded per world.
//
// Nothing here charges the clock. Switch times a window by reading it, the
// cpu package adds shootdown charges to the tally, and an attached profiler
// observes every charge against the live (Tenant, Phase, frames) — so the
// registry's phase attribution and the profile are two readers of one
// context (DESIGN.md §17).
type Attr struct {
	// Tenant is the tenant index being served (NoTenant when none).
	Tenant int
	// Phase is the session phase (one of the Phase* constants, "" if none).
	// A plain write to Tenant or Phase changes what readers see and records
	// nothing: only Switch flushes into the registry.
	Phase string

	met *Registry
	now func() uint64

	// The attribution window the last Switch opened: its pair, its start on
	// the clock, and the initiator-side shootdown cycles charged since. The
	// window keeps its own pair so a plain Tenant/Phase write can neither
	// redirect nor trigger a flush.
	winTenant int
	winPhase  string
	winStart  uint64
	shootdown uint64

	// Span scope (DESIGN.md §14): the last span ID handed out and the stack
	// of open scopes, innermost last.
	spanNext uint64
	scope    []uint64

	// frames is the live profiler frame stack rendered as ";frame;frame..."
	// (leading separator included so a folded prefix concatenates cleanly);
	// lens holds the rendered length before each push, for O(1) pops.
	frames string
	lens   []int
}

// NewAttr returns a context with no tenant bound whose attribution windows
// flush into met (nil records nothing), timed by the clock reader now.
func NewAttr(met *Registry, now func() uint64) *Attr {
	return &Attr{Tenant: NoTenant, winTenant: NoTenant, met: met, now: now}
}

// Switch is the one context switch. It flushes the window the previous
// Switch opened — its elapsed cycles into FamilyTenantPhaseCycles and its
// shootdown cycles into FamilyShootdownCycles, under that window's pair —
// then binds (tenant, phase), opens the next window at the current clock,
// and makes scope the only open span (0 for none). It returns the cycles
// flushed. Phase "" parks: the window it opens flushes nothing.
func (a *Attr) Switch(tenant int, phase string, scope uint64) uint64 {
	now := a.now()
	var elapsed uint64
	if a.winPhase != "" {
		elapsed = now - a.winStart
		label := TenantLabelOf(a.winTenant)
		a.met.Add(FamilyTenantPhaseCycles, elapsed, KV("phase", a.winPhase), KV("tenant", label))
		a.met.Add(FamilyShootdownCycles, a.shootdown, KV("tenant", label))
	}
	a.Tenant, a.Phase = tenant, phase
	a.winTenant, a.winPhase, a.winStart, a.shootdown = tenant, phase, now, 0
	a.scope = a.scope[:0]
	if scope != 0 {
		a.scope = append(a.scope, scope)
	}
	return elapsed
}

// AddShootdown adds n initiator-side TLB-shootdown cycles to the open
// window's tally. Nil-safe: a bare machine carries no context.
func (a *Attr) AddShootdown(n uint64) {
	if a != nil {
		a.shootdown += n
	}
}

// NewSpan hands out the next span ID (1-based; 0 stays "no span"). IDs
// advance in event order, so a (seed, P) reproduces them byte for byte.
func (a *Attr) NewSpan() uint64 {
	a.spanNext++
	return a.spanNext
}

// Span is the innermost open span scope (0 when none).
func (a *Attr) Span() uint64 {
	if len(a.scope) == 0 {
		return 0
	}
	return a.scope[len(a.scope)-1]
}

// PushSpan opens span id as the innermost scope.
func (a *Attr) PushSpan(id uint64) { a.scope = append(a.scope, id) }

// PopSpan closes the innermost scope.
func (a *Attr) PopSpan() {
	if len(a.scope) > 0 {
		a.scope = a.scope[:len(a.scope)-1]
	}
}

// SpanDepth reports the open-scope count.
func (a *Attr) SpanDepth() int { return len(a.scope) }

// PushFrame opens a profiler mechanism frame.
func (a *Attr) PushFrame(frame string) {
	a.lens = append(a.lens, len(a.frames))
	a.frames += ";" + frame
}

// PopFrame closes the innermost frame. Popping an empty stack is a no-op,
// so the pop of a frame opened before a profiler attached is harmless.
func (a *Attr) PopFrame() {
	if n := len(a.lens); n > 0 {
		a.frames = a.frames[:a.lens[n-1]]
		a.lens = a.lens[:n-1]
	}
}

// Frames is the live frame stack rendered ";frame;frame..." ("" if empty).
func (a *Attr) Frames() string { return a.frames }

// FrameDepth reports the live frame count.
func (a *Attr) FrameDepth() int { return len(a.lens) }

// TenantLabel renders the tenant index as a metrics label value.
func (a *Attr) TenantLabel() string {
	if a == nil {
		return "-1"
	}
	return strconv.Itoa(a.Tenant)
}

// Active reports whether a tenant is currently bound.
func (a *Attr) Active() bool { return a != nil && a.Tenant != NoTenant }

// TenantLabelOf renders any tenant index as a label value.
func TenantLabelOf(tenant int) string { return strconv.Itoa(tenant) }
