// Package costs is the calibrated virtual-cycle cost model for the Erebor
// simulation. All latency constants are in CPU cycles on the paper's
// evaluation machine (Intel Xeon Platinum 8570 @ 2.1 GHz); the simulation
// charges these against a virtual clock instead of measuring wall time, so
// every experiment is deterministic.
//
// The transition and privileged-operation constants are calibrated to the
// measured values in Tables 3 and 4 of the paper. Everything else in the
// evaluation (Figures 8-10, Table 6) is *derived* from event counts times
// these constants, never hard-coded.
package costs

// Frequency of the simulated machine. "Per second" statistics reported by
// the harness divide cycle counts by this value.
const (
	// HzPerSecond is the clock rate of the simulated CPU (2.1 GHz, matching
	// the Xeon Platinum 8570 used in the paper).
	HzPerSecond = 2_100_000_000
)

// Privilege-transition round-trip costs (Table 3).
const (
	// EMCRoundTrip is the cost of an empty Erebor-Monitor-Call: entry gate
	// (PKRS grant + stack switch) + dispatch + exit gate (PKRS revoke).
	EMCRoundTrip = 1224
	// EMCEntryGate and EMCExitGate partition EMCRoundTrip; the entry gate is
	// slightly more expensive because it also saves the OS stack pointer.
	EMCEntryGate = 560
	EMCExitGate  = 520
	EMCDispatch  = EMCRoundTrip - EMCEntryGate - EMCExitGate

	// SyscallRoundTrip is an empty user->kernel->user syscall.
	SyscallRoundTrip = 684
	SyscallEntry     = 360
	SyscallExit      = SyscallRoundTrip - SyscallEntry

	// TDCallRoundTrip is a synchronous CVM exit through the TDX module
	// (tdcall leaf vmcall) and back; the extra cost over a plain vmcall is
	// the TDX module protecting the saved guest context.
	TDCallRoundTrip = 5276
	// VMCallRoundTrip is a hypercall from a normal (non-TD) KVM guest,
	// reported in Table 3 for comparison.
	VMCallRoundTrip = 4031
)

// Native costs of the sensitive privileged operations (Table 4, "Native").
const (
	NativePTEWrite = 23     // native_set_pte: plain memory write + bookkeeping
	NativeCRWrite  = 294    // mov %r, %cr0
	NativeSMAP     = 62     // stac ... clac window
	NativeIDTLoad  = 260    // lidt
	NativeMSRWrite = 364    // wrmsr IA32_LSTAR
	NativeTDReport = 126806 // tdcall.tdreport: report generation + HMAC
)

// Erebor monitor-side body costs for the same operations. The total
// delegated cost is EMCRoundTrip + body, reproducing Table 4's "Erebor"
// column exactly:
//
//	MMU  1224+121 = 1345   CR   1224+369 = 1593   SMAP 1224+67 = 1291
//	IDT  1224+145 = 1369   MSR  1224+389 = 1613   GHCI 1224+126857 = 128081
const (
	EreborPTEWriteBody = 121                 // policy validation (single-mapping, PTP key) + write
	EreborCRWriteBody  = 369                 // target-value validation (SMEP/SMAP/PKS bits pinned) + write
	EreborSMAPBody     = 67                  // user-copy emulation setup + stac/clac
	EreborIDTLoadBody  = 145                 // vector-table ownership check (cached descriptor)
	EreborMSRWriteBody = 389                 // MSR allow-list check + write
	EreborGHCIBody     = NativeTDReport + 51 // validation + the tdcall itself
)

// Derived Table 4 "Erebor" totals, exported for harness assertions.
const (
	EreborPTEWrite = EMCRoundTrip + EreborPTEWriteBody
	EreborCRWrite  = EMCRoundTrip + EreborCRWriteBody
	EreborSMAP     = EMCRoundTrip + EreborSMAPBody
	EreborIDTLoad  = EMCRoundTrip + EreborIDTLoadBody
	EreborMSRWrite = EMCRoundTrip + EreborMSRWriteBody
	EreborGHCI     = EMCRoundTrip + EreborGHCIBody
)

// Interrupt and exception delivery costs.
const (
	// InterruptDelivery is the hardware cost of vectoring through the IDT
	// into a ring-0 handler and returning with iret.
	InterruptDelivery = 980
	// ExceptionDelivery is the same path for synchronous exceptions (#PF,
	// #GP, #VE, #CP); slightly cheaper because no APIC acknowledgement.
	ExceptionDelivery = 790
	// InterruptGate is Erebor's #INT gate wrapped around every vector when
	// the monitor owns the IDT: save GPRs, stash + revoke PKRS, restore on
	// return. Charged on top of delivery whenever the monitor interposes.
	InterruptGate = 310
	// SandboxExitInterpose is the monitor's per-exit handling for a sandbox:
	// inspect exit reason, save + scrub sandbox register state, and restore
	// on resume (Fig 7 path 2).
	SandboxExitInterpose = 640
	// ContextSwitch is the kernel's cost to switch between two tasks
	// (register state, CR3 reload is charged separately as a CR write).
	ContextSwitch = 1450
	// ForkBookkeeping is fork's fixed software cost beyond page-table
	// duplication: task struct, fd table, vma list, scheduler enrollment.
	ForkBookkeeping = 30000
)

// Memory-path costs.
const (
	// PageWalk is a software page-table walk on TLB miss.
	PageWalk = 120
	// CopyBytesPerCycle models rep-movsb style bulk copy throughput.
	CopyBytesPerCycle = 16
	// PageZero is clearing one 4 KiB frame.
	PageZero = 4096 / CopyBytesPerCycle
	// FaultHandlerBase is the kernel's page-fault handler software cost
	// before the PTE install: vma lookup, frame allocation, accounting.
	FaultHandlerBase = 620
)

// TLB and SMP coherence costs.
const (
	// TLBHit is a translation served from the per-core TLB (no walk).
	TLBHit = 12
	// TLBInvlPg is one invlpg executed on the initiating core.
	TLBInvlPg = 180
	// TLBFlushAS is invalidating every cached translation of one address
	// space on the initiating core (PCID-targeted flush).
	TLBFlushAS = 240
	// IPISend is programming the APIC ICR to raise a shootdown IPI on one
	// remote core (delivery and the remote handler are charged separately).
	IPISend = 520
)

// Async EMC submission-ring costs. The kernel enqueues MMU requests into a
// shared per-AS ring; the monitor drains it under one gate crossing, so the
// EMCRoundTrip amortizes across every entry of a drained batch.
const (
	// EreborRingSubmit is one kernel-side enqueue: a couple of cache-line
	// writes into the shared ring plus the head update.
	EreborRingSubmit = 18
	// EreborRingDrainBase is the monitor's fixed drain setup: read
	// head/tail, bound the batch, publish the consumed tail.
	EreborRingDrainBase = 95
	// EreborRingDrainEntry is fetching and decoding one ring slot inside
	// the drain (the per-entry policy/PTE work is charged separately, same
	// as the synchronous EMC bodies).
	EreborRingDrainEntry = 14
)

// Sandbox snapshot/fork costs. Snapshot freezes a booted sandbox into an
// immutable template; fork instantiates a tenant from it copy-on-write, so
// time-to-first-compute is O(pages touched) — each touched page pays one
// CoW break (copy + re-key) instead of the boot-time zero+prefault.
const (
	// EreborSnapshotBody is the monitor-side work to seal a sandbox into a
	// template: freeze registers + leaf image, unmap the source, register
	// the frame set (per-page costs are charged separately).
	EreborSnapshotBody = 840
	// EreborSnapshotPage is the per-page template bookkeeping at snapshot
	// (leaf capture + refcount baseline; contents are shared, not copied).
	EreborSnapshotPage = 24
	// EreborForkBody is the monitor-side fork gate: template lookup,
	// identity re-mint, sandbox-state clone, attachment rewrite.
	EreborForkBody = 560
	// EreborForkPage is the per-page fork bookkeeping: refcount increment
	// plus recording the CoW leaf to be installed lazily on first touch.
	EreborForkPage = 8
	// PageCopy is duplicating one 4 KiB frame on a CoW break (same
	// rep-movsb throughput as PageZero).
	PageCopy = 4096 / CopyBytesPerCycle
	// CoWBreakBody is the monitor's CoW-fault software cost beyond the copy
	// itself: shared-bit check, frame allocation, re-key, refcount drop and
	// the downgraded-mapping shootdown setup.
	CoWBreakBody = 380
)

// TDX / host costs beyond the raw transitions.
const (
	// VEInjection is the TDX module trapping a guest event and injecting a
	// virtualization exception (#VE) into the guest (Fig 1 steps 1-2).
	VEInjection = 1150
	// CPUIDEmulated is the monitor's cached cpuid emulation for sandboxes
	// (one host round trip amortized away; this is the cached-hit cost).
	CPUIDEmulated = 85
	// MapGPAConvert is the TDX-module work to flip a page private<->shared
	// in the sEPT, excluding the tdcall transition itself.
	MapGPAConvert = 2900
)

// LibOS service costs (userspace emulation, §6.2).
const (
	// LibOSSyscallEmu is the LibOS handling an emulated syscall entirely in
	// userspace (no ring transition).
	LibOSSyscallEmu = 210
	// SpinlockUncontended / SpinlockContended are the LibOS userspace
	// synchronization primitives replacing futex.
	SpinlockUncontended = 40
	// SpinlockContendedSpin is one busy-wait poll iteration.
	SpinlockContendedSpin = 18
)

// Wire returns the NIC serialization + client-side processing cost for
// transmitting n bytes (~1.2 cycles/byte, 10GbE-class loopback path).
func Wire(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(n) * 6 / 5
}

// Copy copies n bytes and returns its cycle cost (minimum 1 cycle).
func Copy(n int) uint64 {
	if n <= 0 {
		return 0
	}
	c := uint64(n) / CopyBytesPerCycle
	if c == 0 {
		c = 1
	}
	return c
}

// CyclesToSeconds converts a virtual-cycle count into simulated seconds.
func CyclesToSeconds(c uint64) float64 {
	return float64(c) / float64(HzPerSecond)
}

// PerSecond converts an event count observed over elapsed cycles into an
// events-per-second rate. Returns 0 when no time has elapsed.
func PerSecond(events, elapsedCycles uint64) float64 {
	if elapsedCycles == 0 {
		return 0
	}
	return float64(events) / CyclesToSeconds(elapsedCycles)
}
