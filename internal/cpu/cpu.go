// Package cpu simulates the processor cores of a TDX guest: general
// registers, control registers, MSRs, the privilege ring, the per-access
// permission engine (built on internal/paging), trap delivery through a
// software IDT, and the sensitive-instruction surface that Erebor's monitor
// virtualizes (Table 2 of the paper: CR writes, wrmsr, stac, lidt, tdcall).
//
// Trust mapping: on real hardware, Erebor's verified boot guarantees the
// deprivileged kernel's text contains no sensitive instruction bytes, and
// CET guarantees control flow cannot land inside monitor code that does
// contain them. The simulation expresses the combined effect as a machine
// "lockdown": once engaged, executing a sensitive instruction outside
// monitor mode raises #GP, and monitor mode can only be entered with an
// unforgeable token minted exactly once at boot (held by internal/monitor).
package cpu

import (
	"fmt"
	"sync/atomic"

	"github.com/asterisc-release/erebor-go/internal/cet"
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/prof"
)

// Exception vectors (subset).
const (
	VecUD uint8 = 6  // invalid opcode
	VecGP uint8 = 13 // general protection
	VecPF uint8 = 14 // page fault
	VecVE uint8 = 20 // virtualization exception (TDX)
	VecCP uint8 = 21 // control protection (CET)

	// VecTimer is the APIC timer interrupt vector used by the simulated
	// kernel's scheduler tick.
	VecTimer uint8 = 32
	// VecIPI is the inter-processor interrupt vector.
	VecIPI uint8 = 33
	// VecDevice is a generic external-device interrupt vector.
	VecDevice uint8 = 34
	// VecSyscall is the software syscall path; modeled as a vector so the
	// IDT-ownership story is uniform (the real entry is IA32_LSTAR).
	VecSyscall uint8 = 128
)

// Control-register bits used by the simulation.
const (
	CR0WP uint64 = 1 << 16

	CR4SMEP uint64 = 1 << 20
	CR4SMAP uint64 = 1 << 21
	CR4CET  uint64 = 1 << 23
	CR4PKS  uint64 = 1 << 24
)

// MSR indices (architectural numbers where they exist).
const (
	MSRLSTAR   uint32 = 0xC000_0082
	MSRPKRS    uint32 = 0x0000_06E1
	MSRSCET    uint32 = 0x0000_06A2
	MSRPL0SSP  uint32 = 0x0000_06A4
	MSRUINTRTT uint32 = 0x0000_0985
	MSRAPICTPR uint32 = 0x0000_0808
)

// UINTR target-table valid bit (paper §6.2, exit interposition step 4).
const UINTRTTValid uint64 = 1 << 0

// CRReg names a control register for ReadCR/WriteCR.
type CRReg int

const (
	CR0 CRReg = iota
	CR3
	CR4
)

func (r CRReg) String() string { return [...]string{"CR0", "CR3", "CR4"}[r] }

// Reg indexes the general-purpose register file.
type Reg int

const (
	RAX Reg = iota
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	RSP
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	NumRegs
)

// Regs is a register file snapshot. The sandbox exit path saves and scrubs
// one of these before handing control to the untrusted kernel.
type Regs struct {
	GPR [NumRegs]uint64
	RIP uint64
}

// Scrub zeroes every register (the monitor masks sandbox state at exits).
func (r *Regs) Scrub() { *r = Regs{} }

// Trap is a delivered exception or interrupt.
type Trap struct {
	Vector    uint8
	ErrorCode uint64
	Fault     *paging.Fault // populated for #PF
	Detail    string
	FromRing  int
}

func (t *Trap) Error() string {
	if t.Fault != nil {
		return fmt.Sprintf("cpu: trap #%d (%s)", t.Vector, t.Fault.Error())
	}
	return fmt.Sprintf("cpu: trap #%d: %s", t.Vector, t.Detail)
}

// Handler services one IDT vector.
type Handler func(c *Core, t *Trap)

// IDT is a software interrupt descriptor table. Loading one is a sensitive
// instruction (lidt); under Erebor only the monitor can install or mutate
// the live table.
type IDT struct {
	handlers [256]Handler
}

// NewIDT returns an empty table.
func NewIDT() *IDT { return &IDT{} }

// Set installs a handler for vector v.
func (i *IDT) Set(v uint8, h Handler) { i.handlers[v] = h }

// Get returns the handler for vector v (nil if unset).
func (i *IDT) Get(v uint8) Handler { return i.handlers[v] }

// Clock is the machine's virtual cycle counter.
type Clock struct {
	cycles atomic.Uint64
	// sink is the attached cycle profiler, the clock's charge sink. Charge
	// and ChargeFrame are the only ways the clock advances, so it sees every
	// virtual cycle exactly once; it never charges the clock itself.
	sink *prof.Profiler
}

// Charge advances the clock by n cycles.
func (c *Clock) Charge(n uint64) {
	c.cycles.Add(n)
	if c.sink != nil {
		c.sink.Observe(n)
	}
}

// ChargeFrame advances the clock by n cycles spent in one leaf mechanism
// (a TLB hit, a page walk, a PTE write, a gate crossing). An attached
// profiler attributes them to frame nested under the live frames; without
// one it costs what Charge does.
func (c *Clock) ChargeFrame(frame string, n uint64) {
	c.cycles.Add(n)
	if c.sink != nil {
		c.sink.ObserveFrame(frame, n)
	}
}

// Now returns the current cycle count.
func (c *Clock) Now() uint64 { return c.cycles.Load() }

// TDCallHandler is the TDX-module side of the tdcall instruction
// (internal/tdx provides it; injected to avoid a package cycle).
type TDCallHandler interface {
	TDCall(core *Core, leaf uint64, args []uint64) ([]uint64, *Trap)
}

// monitorToken is the unforgeable capability for entering monitor mode.
type monitorToken struct{ m *Machine }

// MonitorToken is held by internal/monitor after boot; possession is the
// simulation's stand-in for "executing verified monitor code".
type MonitorToken = *monitorToken

// Machine ties physical memory, cores, the TDX module and CET state into
// one simulated platform.
type Machine struct {
	Phys  *mem.Physical
	Clock Clock
	Cores []*Core
	TDX   TDCallHandler
	IBT   *cet.IBT

	// TD reports whether the machine is a TDX guest (true) or a plain KVM
	// guest (false, used by the VMCALL baseline in Table 3).
	TD bool

	lockdown    atomic.Bool
	tokenMinted bool

	// TrapCounts tallies deliveries per vector (evaluation statistics).
	TrapCounts [256]atomic.Uint64

	// Attr is the world's execution context (nil on a bare machine):
	// tenant, phase, span scope, profiler frames and the attribution
	// window. The TLB shootdown protocol adds its initiator-side cycles
	// (invlpg/flush costs plus IPI sends) to the window's shootdown tally;
	// the remote handler cost is charged at delivery and attributed to the
	// receiving core's work.
	Attr *metrics.Attr

	// IPIsSent / IPIsSkipped tally the shootdown protocol's remote
	// notifications: an IPI is sent only to a core that actually dropped a
	// TLB entry; a remote core with nothing to flush is skipped (and its
	// IPISend charge with it). Both counters are deterministic per
	// (seed, P) because TLB contents are.
	IPIsSent    uint64
	IPIsSkipped uint64
}

// AttachProfiler makes p the clock's charge sink; from then on every layer's
// PushFrame/PopFrame lands on p's context, which is the world's Attr
// whenever p was built on it. Passing nil detaches.
func (m *Machine) AttachProfiler(p *prof.Profiler) { m.Clock.sink = p }

// PushFrame opens a mechanism frame around work that itself charges (a trap
// delivery, an EMC, a dispatch slice). Frames are pushed only while a
// profiler is attached, so an untraced run pays one nil compare.
func (m *Machine) PushFrame(frame string) {
	if p := m.Clock.sink; p != nil {
		p.Context().PushFrame(frame)
	}
}

// PopFrame closes the innermost frame (no-op without a profiler).
func (m *Machine) PopFrame() {
	if p := m.Clock.sink; p != nil {
		p.Context().PopFrame()
	}
}

// chargeShootdown charges n initiator-side shootdown cycles under frame and
// tallies them into the context's attribution window.
func (m *Machine) chargeShootdown(frame string, n uint64) {
	m.Clock.ChargeFrame(frame, n)
	m.Attr.AddShootdown(n)
}

// NewMachine creates a machine with ncores cores sharing phys.
func NewMachine(phys *mem.Physical, ncores int, td bool) *Machine {
	m := &Machine{Phys: phys, IBT: cet.NewIBT(), TD: td}
	for i := 0; i < ncores; i++ {
		c := &Core{ID: i, Machine: m, Ring: 0, msr: make(map[uint32]uint64),
			tlb: newTLB(DefaultTLBEntries)}
		m.Cores = append(m.Cores, c)
	}
	return m
}

// ShootdownDetail is the Trap.Detail carried by a TLB-shootdown IPI, so
// the IDT owner (the monitor under Erebor) can recognize and absorb it.
const ShootdownDetail = "tlb-shootdown"

// shootdownIPIs raises the shootdown IPI on each remote core whose TLB
// actually dropped an entry (need[i]). Cores with no IDT installed
// (offline, or not yet through boot) have empty TLBs and are skipped —
// there is nothing to invalidate and nowhere to vector. Cores that had
// nothing to flush skip the IPI and its IPISend charge too: the initiator
// already knows their TLBs are clean of the invalidated translations.
// Returns the number of IPIs sent.
func (m *Machine) shootdownIPIs(initiator *Core, need []bool) int {
	m.PushFrame("cpu/shootdown/ipi")
	defer m.PopFrame()
	sent := 0
	for i, c := range m.Cores {
		if c == initiator || c.idt == nil {
			continue
		}
		if !need[i] {
			m.IPIsSkipped++
			continue
		}
		m.Clock.Charge(costs.IPISend)
		m.Attr.AddShootdown(costs.IPISend)
		m.IPIsSent++
		c.Deliver(&Trap{Vector: VecIPI, Detail: ShootdownDetail})
		sent++
	}
	return sent
}

func (m *Machine) checkShootdownInitiator(initiator *Core) {
	if initiator == nil || initiator.Machine != m {
		panic("cpu: TLB shootdown without an initiating core on this machine")
	}
	if initiator.Ring != 0 {
		panic("cpu: TLB shootdown initiated outside ring 0")
	}
}

// Shootdown invalidates the given pages of one address space (identified
// by its root PTP frame) in every core's TLB, then raises a shootdown IPI
// on each remote core. The initiator is charged invlpg cost per page plus
// IPI-send cost per remote; remote handler cost is charged by delivery.
// Privileged software must call this after any present leaf changes or is
// removed, before the old frame may be reused.
func (m *Machine) Shootdown(initiator *Core, root mem.Frame, vas ...paging.Addr) {
	m.checkShootdownInitiator(initiator)
	if len(vas) == 0 {
		return
	}
	m.chargeShootdown("cpu/shootdown/invlpg", costs.TLBInvlPg*uint64(len(vas)))
	need := make([]bool, len(m.Cores))
	for i, c := range m.Cores {
		for _, va := range vas {
			if c.tlb.InvalidatePage(root, va) {
				c.TLBInvalidations++
				need[i] = true
			}
		}
	}
	m.shootdownIPIs(initiator, need)
}

// ShootdownPair scopes one invalidation of a batched shootdown: page VA of
// the address space rooted at Root.
type ShootdownPair struct {
	Root mem.Frame
	VA   paging.Addr
}

// ShootdownBatch invalidates a set of (root, VA) pairs — possibly spanning
// several address spaces — in every core's TLB under a single broadcast:
// at most one IPI per remote core regardless of how many pairs it dropped,
// versus one broadcast per leaf with repeated Shootdown calls. This is the
// coalescing primitive behind the EMC submission ring's drain path.
// Returns the number of IPIs actually sent.
func (m *Machine) ShootdownBatch(initiator *Core, pairs []ShootdownPair) int {
	m.checkShootdownInitiator(initiator)
	if len(pairs) == 0 {
		return 0
	}
	m.chargeShootdown("cpu/shootdown/invlpg", costs.TLBInvlPg*uint64(len(pairs)))
	need := make([]bool, len(m.Cores))
	for i, c := range m.Cores {
		for _, p := range pairs {
			if c.tlb.InvalidatePage(p.Root, p.VA) {
				c.TLBInvalidations++
				need[i] = true
			}
		}
	}
	return m.shootdownIPIs(initiator, need)
}

// ShootdownRoot invalidates every cached translation of one address space
// on every core (PCID-targeted flush) and IPIs the remote cores. Used
// when an address space is destroyed, a sandbox ends, or a sandbox is
// frozen into a fork template.
func (m *Machine) ShootdownRoot(initiator *Core, root mem.Frame) {
	m.checkShootdownInitiator(initiator)
	m.chargeShootdown("cpu/shootdown/flush", costs.TLBFlushAS)
	need := make([]bool, len(m.Cores))
	for i, c := range m.Cores {
		n := c.tlb.InvalidateRoot(root)
		c.TLBInvalidations += uint64(n)
		need[i] = n > 0
	}
	m.shootdownIPIs(initiator, need)
}

// ShootdownVA invalidates the given pages under *every* root on every
// core. Used when a shared kernel-half leaf changes (e.g. the monitor
// re-keys a direct-map page): such leaves are reachable from all address
// spaces, so root-scoped invalidation would leave stale entries behind.
func (m *Machine) ShootdownVA(initiator *Core, vas ...paging.Addr) {
	m.checkShootdownInitiator(initiator)
	if len(vas) == 0 {
		return
	}
	m.chargeShootdown("cpu/shootdown/invlpg", costs.TLBInvlPg*uint64(len(vas)))
	need := make([]bool, len(m.Cores))
	for i, c := range m.Cores {
		for _, va := range vas {
			if n := c.tlb.InvalidateVA(va); n > 0 {
				c.TLBInvalidations += uint64(n)
				need[i] = true
			}
		}
	}
	m.shootdownIPIs(initiator, need)
}

// MintMonitorToken mints the single monitor capability. A second call
// panics: it would mean two components claim to be the monitor.
func (m *Machine) MintMonitorToken() MonitorToken {
	if m.tokenMinted {
		panic("cpu: monitor token already minted")
	}
	m.tokenMinted = true
	return &monitorToken{m: m}
}

// EngageLockdown activates sensitive-instruction enforcement. Requires the
// monitor token (only verified-boot code may flip it).
func (m *Machine) EngageLockdown(tok MonitorToken) {
	if tok == nil || tok.m != m {
		panic("cpu: lockdown requires this machine's monitor token")
	}
	m.lockdown.Store(true)
}

// Lockdown reports whether sensitive-instruction enforcement is active.
func (m *Machine) Lockdown() bool { return m.lockdown.Load() }

// Core is one logical processor.
type Core struct {
	ID      int
	Machine *Machine

	Ring int // 0 = supervisor, 3 = user
	Regs Regs

	cr0 uint64
	cr3 uint64 // physical base of the root PTP
	cr4 uint64
	msr map[uint32]uint64
	ac  bool // EFLAGS.AC (stac/clac)

	idt *IDT

	inMonitor bool
	// SStack is the active supervisor shadow stack (installed via
	// IA32_PL0_SSP by privileged code).
	SStack *cet.ShadowStack

	// Depth guards against recursive trap delivery loops in the simulation.
	deliverDepth int

	// tlb is this core's translation cache (PCID-tagged; survives CR3
	// reloads). See tlb.go.
	tlb *TLB

	// Per-core TLB statistics (evaluation accounting).
	TLBHits          uint64
	TLBMisses        uint64
	TLBInvalidations uint64
}

// TLB exposes the core's translation cache (tests and statistics).
func (c *Core) TLB() *TLB { return c.tlb }

// --- basic state accessors -------------------------------------------------

// CR3Frame returns the root page-table frame from CR3.
func (c *Core) CR3Frame() mem.Frame { return mem.FrameOf(mem.Addr(c.cr3)) }

// CR returns the raw value of a control register (reading CRs is not a
// sensitive operation for the monitor's purposes).
func (c *Core) CR(r CRReg) uint64 {
	switch r {
	case CR0:
		return c.cr0
	case CR3:
		return c.cr3
	default:
		return c.cr4
	}
}

// MSR reads an MSR (rdmsr: ring-0 only, but not in Erebor's sensitive set).
func (c *Core) MSR(idx uint32) uint64 { return c.msr[idx] }

// AC returns the EFLAGS.AC state.
func (c *Core) AC() bool { return c.ac }

// InMonitor is for the C4 and monitor gate tests, which check that the
// gate leaves and revokes monitor mode. It reports whether the core is
// executing monitor code.
func (c *Core) InMonitor() bool { return c.inMonitor }

// IDT returns the live vector table.
func (c *Core) IDT() *IDT { return c.idt }

// SetRing switches privilege level (the simulation's syscall/iret edges).
func (c *Core) SetRing(r int) { c.Ring = r }

// --- monitor-mode transitions (token-gated) --------------------------------

// EnterMonitorMode marks the core as executing monitor code. Only the
// holder of the machine's monitor token can do this; it is invoked from the
// EMC entry gate.
func (c *Core) EnterMonitorMode(tok MonitorToken) {
	if tok == nil || tok.m != c.Machine {
		panic("cpu: EnterMonitorMode without valid monitor token")
	}
	c.inMonitor = true
}

// ExitMonitorMode ends monitor execution (EMC exit gate).
func (c *Core) ExitMonitorMode(tok MonitorToken) {
	if tok == nil || tok.m != c.Machine {
		panic("cpu: ExitMonitorMode without valid monitor token")
	}
	c.inMonitor = false
}

// --- gate microcode accessors ------------------------------------------------
//
// The EMC entry/exit gates and the #INT gate flip PKRS and other state as
// part of their hand-written assembly (Fig 5); their cost is folded into
// the gate constants in internal/costs, so these raw accessors charge
// nothing. They are token-gated: only the monitor can use them.

// RawWriteMSR sets an MSR from gate code without charging wrmsr cost.
func (c *Core) RawWriteMSR(tok MonitorToken, idx uint32, v uint64) {
	if tok == nil || tok.m != c.Machine {
		panic("cpu: RawWriteMSR without valid monitor token")
	}
	c.msr[idx] = v
}

// RawWriteCR sets a control register from gate/boot code without charge.
func (c *Core) RawWriteCR(tok MonitorToken, r CRReg, v uint64) {
	if tok == nil || tok.m != c.Machine {
		panic("cpu: RawWriteCR without valid monitor token")
	}
	switch r {
	case CR0:
		c.cr0 = v
	case CR3:
		c.cr3 = v
	case CR4:
		c.cr4 = v
	}
}

// RawLIDT installs the vector table from boot code without charge.
func (c *Core) RawLIDT(tok MonitorToken, idt *IDT) {
	if tok == nil || tok.m != c.Machine {
		panic("cpu: RawLIDT without valid monitor token")
	}
	c.idt = idt
}

// --- sensitive instructions -------------------------------------------------

// sensitiveOK checks ring privilege and lockdown for a sensitive
// instruction; returns a trap when execution must fault instead.
func (c *Core) sensitiveOK(name string) *Trap {
	if c.Ring != 0 {
		return &Trap{Vector: VecGP, Detail: name + " at CPL>0", FromRing: c.Ring}
	}
	if c.Machine.Lockdown() && !c.inMonitor {
		// Verified boot removed the opcode from kernel text and CET blocks
		// jumps into monitor bodies; attempting it anyway is modeled as #UD.
		return &Trap{Vector: VecUD, Detail: name + " unavailable: Erebor lockdown (instruction removed from deprivileged kernel)", FromRing: c.Ring}
	}
	return nil
}

// WriteCR executes mov %reg, %crN.
func (c *Core) WriteCR(r CRReg, v uint64) *Trap {
	if t := c.sensitiveOK("mov-to-" + r.String()); t != nil {
		return t
	}
	c.Machine.Clock.Charge(costs.NativeCRWrite)
	switch r {
	case CR0:
		c.cr0 = v
	case CR3:
		c.cr3 = v
	case CR4:
		c.cr4 = v
	}
	return nil
}

// WriteMSR executes wrmsr.
func (c *Core) WriteMSR(idx uint32, v uint64) *Trap {
	if t := c.sensitiveOK("wrmsr"); t != nil {
		return t
	}
	c.Machine.Clock.Charge(costs.NativeMSRWrite)
	c.msr[idx] = v
	return nil
}

// STAC executes stac (suspends SMAP); CLAC restores it.
func (c *Core) STAC() *Trap {
	if t := c.sensitiveOK("stac"); t != nil {
		return t
	}
	c.Machine.Clock.Charge(costs.NativeSMAP / 2)
	c.ac = true
	return nil
}

// CLAC clears EFLAGS.AC. clac is ring-0 but not in Erebor's sensitive set
// (re-enabling SMAP is never a privilege escalation); still it cannot run
// at CPL>0.
func (c *Core) CLAC() *Trap {
	if c.Ring != 0 {
		return &Trap{Vector: VecGP, Detail: "clac at CPL>0", FromRing: c.Ring}
	}
	c.Machine.Clock.Charge(costs.NativeSMAP / 2)
	c.ac = false
	return nil
}

// LIDT installs a vector table.
func (c *Core) LIDT(idt *IDT) *Trap {
	if t := c.sensitiveOK("lidt"); t != nil {
		return t
	}
	c.Machine.Clock.Charge(costs.NativeIDTLoad)
	c.idt = idt
	return nil
}

// TDCall executes the tdcall instruction: privileged, and the single choke
// point for GHCI (hypercalls, memory conversion, attestation).
func (c *Core) TDCall(leaf uint64, args []uint64) ([]uint64, *Trap) {
	if t := c.sensitiveOK("tdcall"); t != nil {
		return nil, t
	}
	if c.Machine.TDX == nil {
		return nil, &Trap{Vector: VecUD, Detail: "tdcall outside a TD"}
	}
	return c.Machine.TDX.TDCall(c, leaf, args)
}

// SendUIPI executes senduipi: delivers a user-mode interrupt without a
// kernel transition. It requires a valid user-interrupt target table; the
// monitor clears the valid bit before entering a sandbox (AV3 defense).
func (c *Core) SendUIPI(target uint64) *Trap {
	if c.msr[MSRUINTRTT]&UINTRTTValid == 0 {
		return &Trap{Vector: VecGP, Detail: "senduipi with invalid IA32_UINTR_TT", FromRing: c.Ring}
	}
	c.Machine.Clock.Charge(64)
	return nil
}

// --- memory access engine ----------------------------------------------------

func (c *Core) pagingCtx() paging.Context {
	return paging.Context{
		Supervisor: c.Ring == 0,
		SMEP:       c.cr4&CR4SMEP != 0,
		SMAP:       c.cr4&CR4SMAP != 0,
		ACFlag:     c.ac,
		WP:         c.cr0&CR0WP != 0,
		PKSEnabled: c.cr4&CR4PKS != 0,
		PKRS:       uint32(c.msr[MSRPKRS]),
	}
}

// Tables returns the current address space rooted at CR3 (walk-only).
func (c *Core) Tables() *paging.Tables {
	return &paging.Tables{Phys: c.Machine.Phys, Root: c.CR3Frame()}
}

// Access checks one access of kind at v against the live translation and
// permission state, returning the leaf PTE on success or a #PF trap.
//
// The translation comes from the core's TLB when cached (charging a hit
// instead of a walk); permissions are always checked against the current
// register state, so a cached translation never bypasses PKRS, ring, or
// SMAP enforcement. Successful walks fill the TLB — which is exactly why
// unmap/reclaim paths must shoot down remote TLBs before reusing a frame.
func (c *Core) Access(v paging.Addr, kind paging.AccessKind) (paging.PTE, *Trap) {
	root := c.CR3Frame()
	pte, hit := c.tlb.Lookup(root, v)
	if hit {
		c.Machine.Clock.ChargeFrame("cpu/tlb-hit", costs.TLBHit)
		c.TLBHits++
	} else {
		c.Machine.Clock.ChargeFrame("cpu/page-walk", costs.PageWalk)
		c.TLBMisses++
		var f *paging.Fault
		pte, _, f = c.Tables().Walk(v)
		if f != nil {
			f.Kind = kind
			f.Addr = v
			return 0, &Trap{Vector: VecPF, Fault: f, FromRing: c.Ring}
		}
	}
	if f := paging.Check(v, pte, kind, c.pagingCtx()); f != nil {
		f.Kind = kind
		f.Addr = v
		return 0, &Trap{Vector: VecPF, Fault: f, FromRing: c.Ring}
	}
	if !hit {
		c.tlb.Insert(root, v, pte)
	}
	return pte, nil
}

// Load reads len(buf) bytes from virtual address v with full checks,
// page by page.
func (c *Core) Load(v paging.Addr, buf []byte) *Trap {
	return c.span(v, len(buf), paging.Read, func(pa mem.Addr, off, n int) error {
		return c.Machine.Phys.ReadPhys(pa, buf[off:off+n])
	})
}

// Store writes buf to virtual address v with full checks.
func (c *Core) Store(v paging.Addr, buf []byte) *Trap {
	return c.span(v, len(buf), paging.Write, func(pa mem.Addr, off, n int) error {
		return c.Machine.Phys.WritePhys(pa, buf[off:off+n])
	})
}

func (c *Core) span(v paging.Addr, n int, kind paging.AccessKind, fn func(pa mem.Addr, off, cnt int) error) *Trap {
	off := 0
	for n > 0 {
		pte, t := c.Access(v, kind)
		if t != nil {
			return t
		}
		_, pageOff := paging.Split(v)
		chunk := int(mem.PageSize - pageOff)
		if chunk > n {
			chunk = n
		}
		pa := pte.Frame().Base() + mem.Addr(pageOff)
		if err := fn(pa, off, chunk); err != nil {
			return &Trap{Vector: VecGP, Detail: err.Error()}
		}
		c.Machine.Clock.ChargeFrame("cpu/copy", costs.Copy(chunk))
		v += paging.Addr(chunk)
		off += chunk
		n -= chunk
	}
	return nil
}

// --- trap delivery ------------------------------------------------------------

// Deliver vectors a trap through the live IDT. The previous ring is saved
// and restored; handlers run in ring 0. Missing handlers panic: the
// simulation considers an unhandled trap a configuration bug.
func (c *Core) Deliver(t *Trap) {
	if c.idt == nil {
		panic(fmt.Sprintf("cpu: trap #%d with no IDT installed: %s", t.Vector, t.Error()))
	}
	h := c.idt.Get(t.Vector)
	if h == nil {
		panic(fmt.Sprintf("cpu: unhandled trap #%d: %s", t.Vector, t.Error()))
	}
	c.deliverDepth++
	if c.deliverDepth > 64 {
		panic("cpu: trap delivery recursion")
	}
	c.Machine.TrapCounts[t.Vector].Add(1)
	// The delivery frame wraps the handler too, so handler work (page-fault
	// service, shootdown absorption, syscall bodies) nests causally under
	// the trap class that invoked it.
	frame, cost := "cpu/deliver/interrupt", uint64(costs.InterruptDelivery)
	switch {
	case t.Vector == VecSyscall:
		// The syscall fast path (syscall/sysret) is cheaper than an IDT
		// transition; entry/exit split reproduces Table 3's empty syscall.
		frame, cost = "cpu/deliver/syscall", costs.SyscallEntry
	case t.Vector < 32:
		frame, cost = "cpu/deliver/exception", costs.ExceptionDelivery
	}
	c.Machine.PushFrame(frame)
	c.Machine.Clock.Charge(cost)
	prevRing := c.Ring
	t.FromRing = prevRing
	c.Ring = 0
	h(c, t)
	c.Ring = prevRing
	if t.Vector == VecSyscall {
		c.Machine.Clock.Charge(costs.SyscallExit)
	}
	c.Machine.PopFrame()
	c.deliverDepth--
}
