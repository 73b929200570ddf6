// Package monitor implements EREBOR-MONITOR, the paper's core contribution:
// a security monitor virtualized out of the CVM's ring 0 via intra-kernel
// privilege isolation (§5). The monitor owns every sensitive privileged
// instruction (Table 2), all page-table pages, the IDT, the GHCI/tdcall
// choke point and the attestation interface; the deprivileged kernel
// requests sensitive operations through gated EREBOR-MONITOR-CALLs (EMCs).
//
// On top of that privilege boundary the monitor enforces the three sandbox
// properties of §6: resource-efficient memory isolation (confined/common),
// runtime and exit protection, and secure end-to-end data communication.
package monitor

import (
	"fmt"
	"io"

	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/cet"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/egress"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Protection-key assignments (§5.2).
const (
	KeyDefault uint8 = 0 // ordinary kernel memory
	KeyMonitor uint8 = 1 // monitor code/data/stacks: kernel gets AD+WD
	KeyPTP     uint8 = 2 // page-table pages: kernel gets WD (read-only)
)

// Virtual-memory layout (48-bit space; PML4 slot in parentheses).
const (
	UserBase       paging.Addr = 0x0000_0000_1000
	UserTop        paging.Addr = 0x8000_0000_0000 // slots 0-255 are user
	KernelTextBase paging.Addr = 0x8000_0000_0000 // slot 256
	DirectMapBase  paging.Addr = 0xC000_0000_0000 // slot 384
	MonitorBase    paging.Addr = 0xE000_0000_0000 // slot 448

	// EMCEntryAddr is the single endbr64 landing pad in monitor memory: the
	// start of the EMC entry gate (Fig 5a line 2).
	EMCEntryAddr = uint64(MonitorBase)
)

// Reserved physical region names.
const (
	RegionMonitor  = "monitor-pool" // monitor image, stacks, PTPs
	RegionCMA      = "erebor-cma"   // sandbox confined memory (pinned)
	RegionSharedIO = "shared-io"    // the only frames allowed to become CVM-shared
)

// SharedIOFrames is the size of the shared-io region. Boot reserves it
// first, then a quarter of physical memory each for CMA and the monitor
// pool.
const SharedIOFrames = 64

// NormalPKRS is the kernel's (normal-mode) PKRS: monitor key fully denied,
// PTP key write-denied, everything else open.
var NormalPKRS = paging.PKRSSet(paging.PKRSSet(paging.PKRSAllowAll, KeyMonitor, true, true), KeyPTP, false, true)

// MonitorPKRS grants all keys (EMC entry gate, Fig 5a line 10).
const MonitorPKRS = paging.PKRSAllowAll

// Stats counts monitor activity for the evaluation harness. The per-kind
// EMC breakdowns that used to live here as ad-hoc maps are now registry
// families (metrics.FamilyEMC / FamilyEMCCycles); read them through
// Monitor.EMCByKind and Monitor.EMCCyclesByKind.
type Stats struct {
	EMCs                  uint64
	InterposeCycles       uint64
	PTEWrites             uint64
	SyscallInterpositions uint64
	SandboxExits          uint64
	SandboxKills          uint64
	// SandboxSnapshots counts sandboxes frozen into fork templates, and
	// SandboxForks counts copy-on-write instantiations from them. CowBreaks
	// counts first-write page copies restoring exclusivity on forked pages.
	SandboxSnapshots uint64
	SandboxForks     uint64
	CowBreaks        uint64
	UserCopies       uint64
	QuotesIssued     uint64
	// RuntimeViolations counts kernel misbehavior at the interpose boundary
	// (unregistered handlers, malformed transitions) that the monitor
	// recorded and contained instead of crashing.
	RuntimeViolations uint64
	// ChannelErrors counts secure-channel transport failures absorbed while
	// pumping client records.
	ChannelErrors uint64
}

// ASID names an address space registered with the monitor.
type ASID int

type asState struct {
	id     ASID
	owner  mem.Owner
	tables *paging.Tables
	// userFrames tracks frames mapped into user space (for teardown).
	userFrames map[paging.Addr]mem.Frame
}

// Monitor is the Erebor security monitor.
type Monitor struct {
	M   *cpu.Machine
	TDX *tdx.Module
	QK  *attest.QuotingKey

	tok cpu.MonitorToken
	idt *cpu.IDT

	kernelTables *paging.Tables
	dirmapReady  bool

	ptps          map[mem.Frame]bool
	monitorFrames map[mem.Frame]bool
	kernelText    map[mem.Frame]bool // W^X bookkeeping

	addrSpaces map[ASID]*asState
	nextASID   ASID
	rootIndex  map[mem.Frame]ASID // registered CR3 roots

	sandboxes    map[SandboxID]*sbState
	nextSBID     SandboxID
	commons      map[string]*commonRegion
	nextCommonID uint64

	// templates is the snapshot registry: booted sandboxes frozen into
	// immutable images that EMCForkSandbox instantiates copy-on-write.
	// templateFrames indexes every shared template frame for the mapping
	// policy and the I9 refcount audit.
	templates      map[TemplateID]*sbTemplate
	nextTemplateID TemplateID
	templateFrames map[mem.Frame]TemplateID

	// confinedOwner maps each confined frame to the single sandbox allowed
	// to have it mapped (single-mapping policy, §6.1).
	confinedOwner map[mem.Frame]SandboxID

	// Kernel-registered callbacks (through EMC SetVector/SetSyscallEntry).
	kernelVectors [256]cpu.Handler
	kernelSyscall func(c *cpu.Core, t *cpu.Trap)

	// cpuidCache backs the monitor's cpuid emulation for sandboxes (§6.2).
	cpuidCache map[uint64][4]uint64

	// sstacks are the per-core supervisor shadow stacks.
	sstacks []*cet.ShadowStack

	// txn is the scratch of the MMU transaction (mmuValidate, mmuCommit).
	txn mmuTxn

	// preemptHook simulates an interrupt injected mid-EMC (tests/bench).
	preemptHook func(c *cpu.Core)

	// gateCore is the core currently executing an EMC gate body. Internal
	// allocation paths (allocPTP, allocMonitorFrame) use it as the TLB
	// shootdown initiator when re-keying direct-map leaves; outside any
	// gate, the boot core stands in (boot/control paths run at ring 0).
	gateCore *cpu.Core

	// BatchMMU enables the batched-MMU-update ablation: Map requests carry
	// multiple PTEs under one gate crossing.
	BatchMMU bool

	// RingMMU enables the async EMC submission ring: the kernel enqueues
	// independent MMU requests per address space and the monitor drains
	// them under one gate crossing with validate-all-then-commit semantics
	// and one coalesced shootdown broadcast per drain (EMCRingDrain).
	RingMMU bool

	// ExitRateLimit, when non-zero, kills any sandbox exceeding this many
	// software-driven exits per simulated second after data install — the
	// §11 rate-limiting mitigation for exit-frequency covert channels.
	ExitRateLimit uint64

	// OutputQuantum, when non-zero, releases sandbox output only at
	// quantized virtual-time intervals (cycles), closing the §11
	// input-output interval covert channel.
	OutputQuantum uint64

	// KillNotify, if set, tells the kernel glue that a sandbox was killed so
	// the hosting task can be terminated. (The kernel is untrusted: even if
	// it ignores the notification, the sandbox's memory is already scrubbed
	// and its exits stay blocked.)
	KillNotify func(id SandboxID, reason string)

	// Rec is the optional flight recorder (nil = tracing disabled; every
	// hook site is a single nil compare). The recorder reads the virtual
	// clock but never charges it, so traced and untraced runs observe
	// identical cycle counts.
	Rec *trace.Recorder

	// Met is the telemetry registry — always non-nil after Boot (recording
	// never charges the virtual clock, so there is no "metrics off" cycle
	// difference to preserve). The harness replaces it with the world-wide
	// shared registry right after Boot, before any EMC fires.
	Met *metrics.Registry

	// wd is the continuous invariant watchdog state (nil = disabled).
	wd *watchdogState

	// Egress is the serving path's egress-decision ledger (nil outside
	// serving). When set, Audit additionally sweeps invariant I8: every
	// frame recorded as having crossed the proxy is re-checked against its
	// tenant's registered policy.
	Egress *egress.Ledger

	// Entropy, when non-nil, replaces the OS CSPRNG for handshake key
	// material (the server's ephemeral X25519 share). Chaos runs pin it to
	// the fault-plan seed so content-dependent wire faults — a bit flipped
	// in a plaintext hello either breaks its encoding or not, depending on
	// the key bytes under it — replay identically across processes.
	Entropy io.Reader

	// nextModuleVA places dynamically loaded kernel code.
	nextModuleVA uint64

	// debugOut is the DebugFS-emulation output queue used when a sandbox
	// has no live secure channel (paper §7 evaluation setup).
	debugOut [][]byte

	// retiredChan accumulates resilience-layer counters of channels whose
	// sandbox ended or was retired with its address space, so ChannelStats
	// stays a whole-history aggregate across every sandbox the monitor has
	// torn down.
	retiredChan secchan.ReliableStats

	// violations records kernel misbehavior observed at the interpose
	// boundary. The untrusted kernel misregistering handlers is an attack
	// (or bug) the monitor must survive: it is recorded here and the
	// offending transition is contained, never a monitor panic. Panics
	// remain only for monitor-internal invariant breaks (e.g. shadow-stack
	// corruption).
	violations []string

	Stats Stats

	monitorImage []byte
	booted       bool
}

// Boot performs stage one of the verified boot (§5.1): only firmware and
// the monitor are loaded and measured; the monitor takes ownership of all
// memory-configuration interfaces, programs the protection keys and CET,
// and engages lockdown. The kernel is not loaded yet.
func Boot(m *cpu.Machine, module *tdx.Module, qk *attest.QuotingKey) (*Monitor, error) {
	mon := &Monitor{
		M: m, TDX: module, QK: qk,
		ptps:           make(map[mem.Frame]bool),
		monitorFrames:  make(map[mem.Frame]bool),
		kernelText:     make(map[mem.Frame]bool),
		addrSpaces:     make(map[ASID]*asState),
		rootIndex:      make(map[mem.Frame]ASID),
		sandboxes:      make(map[SandboxID]*sbState),
		commons:        make(map[string]*commonRegion),
		confinedOwner:  make(map[mem.Frame]SandboxID),
		templates:      make(map[TemplateID]*sbTemplate),
		templateFrames: make(map[mem.Frame]TemplateID),
		cpuidCache:     make(map[uint64][4]uint64),
	}
	mon.Met = metrics.New()
	mon.tok = m.MintMonitorToken()

	phys := m.Phys
	if _, err := phys.Reserve(RegionSharedIO, SharedIOFrames); err != nil {
		return nil, fmt.Errorf("monitor: reserving shared-io: %w", err)
	}
	if _, err := phys.Reserve(RegionCMA, phys.NumFrames()/4); err != nil {
		return nil, fmt.Errorf("monitor: reserving CMA: %w", err)
	}
	if _, err := phys.Reserve(RegionMonitor, phys.NumFrames()/4); err != nil {
		return nil, fmt.Errorf("monitor: reserving monitor pool: %w", err)
	}

	// The monitor image: a synthetic text blob whose only endbr64 is at
	// offset 0 (the EMC entry gate). Tests scan it to verify the IBT story.
	mon.monitorImage = buildMonitorText()
	module.MeasureBoot("erebor-monitor", mon.monitorImage)

	if err := mon.buildKernelTables(); err != nil {
		return nil, err
	}
	if err := mon.mapMonitorImage(); err != nil {
		return nil, err
	}

	// Program every core: IDT gates, control bits, PKRS, shadow stacks.
	mon.idt = cpu.NewIDT()
	for v := 0; v < 256; v++ {
		vec := uint8(v)
		mon.idt.Set(vec, func(c *cpu.Core, t *cpu.Trap) { mon.intGate(c, t) })
	}
	m.IBT.MarkEndbr(EMCEntryAddr)
	m.IBT.Enable()
	for _, c := range m.Cores {
		c.RawLIDT(mon.tok, mon.idt)
		c.RawWriteCR(mon.tok, cpu.CR0, cpu.CR0WP)
		c.RawWriteCR(mon.tok, cpu.CR4, cpu.CR4SMEP|cpu.CR4SMAP|cpu.CR4PKS|cpu.CR4CET)
		c.RawWriteCR(mon.tok, cpu.CR3, uint64(mon.kernelTables.Root.Base()))
		c.RawWriteMSR(mon.tok, cpu.MSRPKRS, uint64(NormalPKRS))
		c.RawWriteMSR(mon.tok, cpu.MSRLSTAR, EMCEntryAddr) // syscalls land in the monitor first
		ss := cet.NewShadowStack()
		ss.Enable()
		if err := ss.Activate(); err != nil {
			return nil, err
		}
		c.SStack = ss
		mon.sstacks = append(mon.sstacks, ss)
	}
	mon.rootIndex[mon.kernelTables.Root] = 0

	m.EngageLockdown(mon.tok)
	mon.booted = true
	return mon, nil
}

// MonitorImage returns the measured monitor text (clients compute expected
// MRTD from it; tests scan it).
func (mon *Monitor) MonitorImage() []byte { return mon.monitorImage }

// KernelTables exposes the kernel address space (read-only use: the kernel
// walks its own tables freely; writing PTEs requires EMCs).
func (mon *Monitor) KernelTables() *paging.Tables { return mon.kernelTables }

// allocMonitorFrame takes a monitor-pool frame and keys it to the monitor
// in the direct map.
func (mon *Monitor) allocMonitorFrame() (mem.Frame, error) {
	f, err := mon.M.Phys.AllocRegion(RegionMonitor, mem.OwnerMonitor)
	if err != nil {
		return 0, err
	}
	mon.monitorFrames[f] = true
	if mon.dirmapReady {
		mon.keyDirectMap(f, KeyMonitor)
	}
	return f, nil
}

// allocPTP takes a monitor-pool frame for a page-table page and
// write-protects it from the kernel via the PTP key.
func (mon *Monitor) allocPTP() (mem.Frame, error) {
	f, err := mon.M.Phys.AllocRegion(RegionMonitor, mem.OwnerMonitor)
	if err != nil {
		return 0, err
	}
	mon.ptps[f] = true
	if mon.dirmapReady {
		mon.keyDirectMap(f, KeyPTP)
	}
	return f, nil
}

// freePTP returns a page-table page to the monitor pool (MMU rollback,
// address-space destroy). The frame keeps its PTP key in the direct map
// while it is free: the pool is the monitor's alone, and both of its
// allocators re-key a frame, with a shootdown, before handing it out. So
// freeing rewrites no direct-map leaf and needs no shootdown of its own.
func (mon *Monitor) freePTP(f mem.Frame) {
	delete(mon.ptps, f)
	_ = mon.M.Phys.Free(f)
}

// DirectMapAddr is the kernel-virtual address of a physical frame.
func DirectMapAddr(f mem.Frame) paging.Addr {
	return DirectMapBase + paging.Addr(f.Base())
}

func (mon *Monitor) keyDirectMap(f mem.Frame, key uint8) {
	err := mon.kernelTables.Update(DirectMapAddr(f), func(e paging.PTE) paging.PTE {
		return e.WithKey(key)
	})
	if err != nil {
		panic(fmt.Sprintf("monitor: keying direct map of frame %d: %v", f, err))
	}
	// The direct-map leaf is reachable from every registered root (the
	// kernel half is shared), so a root-scoped invalidation is not enough:
	// a stale KeyDefault translation on any core would defeat the PKS
	// write-denial this re-keying establishes.
	mon.M.ShootdownVA(mon.shootdownInitiator(), DirectMapAddr(f))
}

// shootdownInitiator picks the core on whose behalf a monitor-internal
// shootdown is issued: the core inside the current EMC gate if any,
// otherwise the boot core (monitor control paths run at ring 0).
func (mon *Monitor) shootdownInitiator() *cpu.Core {
	if mon.gateCore != nil {
		return mon.gateCore
	}
	return mon.M.Cores[0]
}

// buildKernelTables constructs the shared kernel address space: a direct
// map of all physical memory (supervisor RW, NX), with PTP and monitor
// frames keyed after the fact.
func (mon *Monitor) buildKernelTables() error {
	t, err := paging.New(mon.M.Phys, mon.allocPTP)
	if err != nil {
		return err
	}
	mon.kernelTables = t
	leaf := (paging.Present | paging.Writable | paging.NX).WithFrame(0)
	if err := t.MapRange(DirectMapAddr(0), leaf, mon.M.Phys.NumFrames()); err != nil {
		return fmt.Errorf("monitor: building direct map: %w", err)
	}
	mon.dirmapReady = true
	// Retroactively key the PTPs that the direct-map build itself created,
	// and any monitor frames allocated so far.
	for f := range mon.ptps {
		mon.keyDirectMap(f, KeyPTP)
	}
	for f := range mon.monitorFrames {
		if !mon.ptps[f] {
			mon.keyDirectMap(f, KeyMonitor)
		}
	}
	return nil
}

// mapMonitorImage places the monitor text at MonitorBase (RX, monitor key)
// and allocates per-core secure stacks (RW, NX, monitor key).
func (mon *Monitor) mapMonitorImage() error {
	img := mon.monitorImage
	for off := 0; off < len(img); off += mem.PageSize {
		f, err := mon.allocMonitorFrame()
		if err != nil {
			return err
		}
		b, err := mon.M.Phys.Bytes(f)
		if err != nil {
			return err
		}
		end := off + mem.PageSize
		if end > len(img) {
			end = len(img)
		}
		copy(b, img[off:end])
		leaf := paging.Present.WithFrame(f).WithKey(KeyMonitor) // RX: no Writable, no NX
		if err := mon.kernelTables.Map(MonitorBase+paging.Addr(off), leaf); err != nil {
			return err
		}
	}
	// Per-core secure stacks: 4 frames each, mapped after the image.
	stackBase := MonitorBase + 0x100000
	for i := range mon.M.Cores {
		for p := 0; p < 4; p++ {
			f, err := mon.allocMonitorFrame()
			if err != nil {
				return err
			}
			va := stackBase + paging.Addr(i*0x10000+p*mem.PageSize)
			leaf := (paging.Present | paging.Writable | paging.NX).WithFrame(f).WithKey(KeyMonitor)
			if err := mon.kernelTables.Map(va, leaf); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetPreemptHook installs a one-shot interrupt injected during the next EMC
// (exercises the #INT gate, Fig 5c-right).
func (mon *Monitor) SetPreemptHook(h func(c *cpu.Core)) { mon.preemptHook = h }

// EMCByKind snapshots the per-kind EMC entry counts from the registry
// (formerly Stats.EMCByKind).
func (mon *Monitor) EMCByKind() map[string]uint64 {
	return mon.Met.CounterMap(metrics.FamilyEMC, "kind")
}

// EMCCyclesByKind snapshots the per-kind EMC gate-cycle attribution from
// the registry (formerly Stats.CyclesByKind).
func (mon *Monitor) EMCCyclesByKind() map[string]uint64 {
	return mon.Met.CounterMap(metrics.FamilyEMCCycles, "kind")
}

// recordViolation logs kernel misbehavior at the monitor boundary. The
// event is contained (the offending transition is dropped or killed), the
// record is available to operators via RuntimeViolations, and the monitor
// keeps running.
func (mon *Monitor) recordViolation(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	mon.violations = append(mon.violations, msg)
	mon.Stats.RuntimeViolations++
	mon.Met.Inc(metrics.FamilyRuntimeViolations)
	mon.Rec.Emit(trace.KindViolation, trace.TrackMonitor, msg)
}

// RuntimeViolations returns the kernel-misbehavior events recorded at the
// interpose boundary (complementing Audit, which checks memory-state
// invariants).
func (mon *Monitor) RuntimeViolations() []string {
	out := make([]string, len(mon.violations))
	copy(out, mon.violations)
	return out
}

// Token is intentionally NOT exported: the monitor capability never leaves
// this package.
func (mon *Monitor) assertBooted() {
	if !mon.booted {
		panic("monitor: not booted")
	}
}
