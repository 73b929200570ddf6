package metrics

import (
	"slices"
	"strconv"
	"strings"
	"sync"
)

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
	// {dir, tenant}: dir is one of the ChanDir values, tenant is the session
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

// EMCKind is an EMC gate kind: the {kind} label of FamilyEMC,
// FamilyEMCCycles and FamilyTenantEMCCycles. The kinds are fixed, so the
// per-kind series, profiler frames and trace labels are tables indexed by
// kind instead of strings built per crossing.
type EMCKind uint8

// EMC gate kinds.
const (
	EMCNop EMCKind = iota
	EMCCR
	EMCMSR
	EMCIDT
	EMCSMAP
	EMCModule
	EMCGHCI
	EMCSandbox
	EMCMMU
	EMCRing
	EMCIO
	NumEMCKinds
)

var emcKindNames = [NumEMCKinds]string{
	EMCNop: "nop", EMCCR: "cr", EMCMSR: "msr", EMCIDT: "idt", EMCSMAP: "smap",
	EMCModule: "module", EMCGHCI: "ghci", EMCSandbox: "sandbox", EMCMMU: "mmu",
	EMCRing: "ring", EMCIO: "io",
}

// String is the kind's label value.
func (k EMCKind) String() string { return emcKindNames[k] }

// ChanDir is a secure-channel frame event: the {dir} label of
// FamilyChannelFrames.
type ChanDir uint8

// Channel frame events.
const (
	ChanSend ChanDir = iota
	ChanRecv
	ChanRetransmit
	ChanDrop
	ChanReorder
	NumChanDirs
)

var chanDirNames = [NumChanDirs]string{
	ChanSend: "send", ChanRecv: "recv", ChanRetransmit: "retransmit",
	ChanDrop: "drop", ChanReorder: "reorder",
}

// String is the event's label value.
func (d ChanDir) String() string { return chanDirNames[d] }

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
// observes every charge against the live (Tenant, Phase, frame) — so the
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

	// The attribution window the last Switch opened: its tenant's series,
	// its phase, its start on the clock, and the initiator-side shootdown
	// cycles charged since. The window keeps its own pair so a plain
	// Tenant/Phase write can neither redirect nor trigger a flush.
	win       *TenantSeries
	winPhase  string
	winStart  uint64
	shootdown uint64

	// tenants caches series sets by tenant index modulo its size, so a
	// fleet that names a new tenant per session keeps a bounded number;
	// bound is the set of the tenant bound last.
	tenants [tenantCache]*TenantSeries
	bound   *TenantSeries

	// Span scope (DESIGN.md §14): the last span ID handed out and the stack
	// of open scopes, innermost last.
	spanNext uint64
	scope    []uint64

	// The profiler frames form a calling-context tree: root is the empty
	// stack and frame the live one. treeMu orders node creation against an
	// export walking the tree; moving along existing nodes takes no lock.
	root, frame *FrameNode
	nodes       int
	treeMu      sync.Mutex
}

// tenantCache is how many tenants' series sets a context keeps: more than
// any fleet serves at once, so sets are rebuilt only for new tenants.
const tenantCache = 256

// TenantSeries holds the series one tenant's work writes, resolved on their
// first write and kept, so the gate, the scheduler and the channel write
// them without building a key. Each series still appears only once it is
// written. A nil *TenantSeries records nothing.
type TenantSeries struct {
	tenant int
	label  string
	met    *Registry

	dispatch, shootdown *series
	emcCycles           [NumEMCKinds]*series
	frames              [NumChanDirs]*series
	phases              []phaseSeries
}

type phaseSeries struct {
	phase string
	s     *series
}

// add is the tenant's write path: the registry's, through the series
// cache.
func (t *TenantSeries) add(cache **series, name string, n uint64, labels ...Label) {
	if t.met != nil && n != 0 {
		t.met.add(cache, name, n, labels)
	}
}

// AddDispatch adds n cycles to FamilyTenantDispatchCycles{tenant}.
func (t *TenantSeries) AddDispatch(n uint64) {
	if t != nil {
		t.add(&t.dispatch, FamilyTenantDispatchCycles, n, KV("tenant", t.label))
	}
}

// AddEMCCycles adds n cycles to FamilyTenantEMCCycles{kind, tenant}.
func (t *TenantSeries) AddEMCCycles(kind EMCKind, n uint64) {
	if t != nil {
		t.add(&t.emcCycles[kind], FamilyTenantEMCCycles, n, KV("kind", kind.String()), KV("tenant", t.label))
	}
}

// CountFrame counts one FamilyChannelFrames{dir, tenant} event.
func (t *TenantSeries) CountFrame(dir ChanDir) {
	if t != nil {
		t.add(&t.frames[dir], FamilyChannelFrames, 1, KV("dir", dir.String()), KV("tenant", t.label))
	}
}

// flush adds a closed window's cycles to FamilyTenantPhaseCycles{phase,
// tenant} and its shootdown cycles to FamilyShootdownCycles{tenant}.
func (t *TenantSeries) flush(phase string, cycles, shootdown uint64) {
	i := 0
	for i < len(t.phases) && t.phases[i].phase != phase {
		i++
	}
	if i == len(t.phases) {
		t.phases = append(t.phases, phaseSeries{phase: phase})
	}
	t.add(&t.phases[i].s, FamilyTenantPhaseCycles, cycles, KV("phase", phase), KV("tenant", t.label))
	t.add(&t.shootdown, FamilyShootdownCycles, shootdown, KV("tenant", t.label))
}

// NewAttr returns a context with no tenant bound whose attribution windows
// flush into met (nil records nothing), timed by the clock reader now.
func NewAttr(met *Registry, now func() uint64) *Attr {
	return &Attr{Tenant: NoTenant, met: met, now: now}
}

// Series returns the series set of the tenant the context names now (nil
// on a nil context). Switch binds it; a plain Tenant write binds it on the
// next read.
func (a *Attr) Series() *TenantSeries {
	if a == nil {
		return nil
	}
	if t := a.bound; t != nil && t.tenant == a.Tenant {
		return t
	}
	slot := &a.tenants[uint(a.Tenant)%tenantCache]
	if t := *slot; t == nil || t.tenant != a.Tenant {
		*slot = &TenantSeries{tenant: a.Tenant, label: TenantLabelOf(a.Tenant), met: a.met}
	}
	a.bound = *slot
	return a.bound
}

// Switch is the one context switch. It flushes the window the previous
// Switch opened — its elapsed cycles into FamilyTenantPhaseCycles and its
// shootdown cycles into FamilyShootdownCycles, under that window's pair —
// then binds (tenant, phase) and the tenant's series set, opens the next
// window at the current clock, and makes scope the only open span (0 for
// none). It returns the cycles flushed. Phase "" parks: the window it
// opens flushes nothing.
func (a *Attr) Switch(tenant int, phase string, scope uint64) uint64 {
	now := a.now()
	var elapsed uint64
	if a.winPhase != "" {
		elapsed = now - a.winStart
		a.win.flush(a.winPhase, elapsed, a.shootdown)
	}
	a.Tenant, a.Phase = tenant, phase
	a.win, a.winPhase, a.winStart, a.shootdown = a.Series(), phase, now, 0
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

// SpanDepth is for the trace and metrics span tests, which check that
// scopes balance. It reports the open-scope count.
func (a *Attr) SpanDepth() int { return len(a.scope) }

// FrameNode is one node of the context's calling-context tree: the path
// from the root names a profiler frame stack. Nodes are numbered densely
// in creation order, so a profiler keeps its counters in slices indexed
// by ID.
type FrameNode struct {
	name   string
	id     int
	depth  int
	parent *FrameNode
	kids   []*FrameNode
}

// ID is the node's number (the root's is 0).
func (f *FrameNode) ID() int { return f.id }

// child returns f's child named name, making it on first use. Frame names
// are constants or come from per-kind tables, so the compare is usually a
// pointer match.
func (a *Attr) child(f *FrameNode, name string) *FrameNode {
	for _, c := range f.kids {
		if c.name == name {
			return c
		}
	}
	c := &FrameNode{name: name, id: a.nodes, depth: f.depth + 1, parent: f}
	a.treeMu.Lock()
	a.nodes++
	f.kids = append(f.kids, c)
	a.treeMu.Unlock()
	return c
}

// Frame is the live frame stack's node (the root when no frame is open).
// The first call plants the tree's root.
func (a *Attr) Frame() *FrameNode {
	if a.frame == nil {
		a.treeMu.Lock()
		a.root, a.nodes = &FrameNode{}, 1
		a.treeMu.Unlock()
		a.frame = a.root
	}
	return a.frame
}

// PushFrame opens a profiler mechanism frame: the live stack moves to its
// child named frame.
func (a *Attr) PushFrame(frame string) { a.frame = a.child(a.Frame(), frame) }

// PopFrame closes the innermost frame. Popping an empty stack is a no-op,
// so the pop of a frame opened before a profiler attached is harmless.
func (a *Attr) PopFrame() {
	if p := a.Frame().parent; p != nil {
		a.frame = p
	}
}

// LeafFrame is the node of the live stack with frame pushed on top: where
// a leaf charge lands.
func (a *Attr) LeafFrame(frame string) *FrameNode { return a.child(a.Frame(), frame) }

// FrameDepth reports the live frame count.
func (a *Attr) FrameDepth() int { return a.Frame().depth }

// WalkFrames calls fn for every node of the tree, depth first with
// siblings in name order, with the node's stack rendered ";frame;frame..."
// ("" for the root; the leading separator lets a folded prefix
// concatenate cleanly).
func (a *Attr) WalkFrames(fn func(stack string, f *FrameNode)) {
	a.treeMu.Lock()
	defer a.treeMu.Unlock()
	if a.root == nil {
		return
	}
	var walk func(f *FrameNode, stack string)
	walk = func(f *FrameNode, stack string) {
		fn(stack, f)
		kids := slices.Clone(f.kids)
		slices.SortFunc(kids, func(x, y *FrameNode) int { return strings.Compare(x.name, y.name) })
		for _, c := range kids {
			walk(c, stack+";"+c.name)
		}
	}
	walk(a.root, "")
}

// Active reports whether a tenant is currently bound.
func (a *Attr) Active() bool { return a != nil && a.Tenant != NoTenant }

// TenantLabelOf renders any tenant index as a label value.
func TenantLabelOf(tenant int) string { return strconv.Itoa(tenant) }
