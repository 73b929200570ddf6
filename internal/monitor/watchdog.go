package monitor

import (
	"fmt"
	"io"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// The continuous invariant watchdog turns Monitor.Audit from a test-only
// spot check into a runtime self-audit: sweeps run at a deterministic
// virtual-clock cadence (checked at every EMC gate exit) and at the phase
// boundaries where invariants are most likely to regress — sealing commons,
// destroying an address space, ending a session, snapshotting and forking
// a sandbox, and committing a ring drain. Each sweep feeds the metrics
// registry and a structured event log; it reads the clock but never
// charges it, so a watchdog-on run is cycle-identical to a watchdog-off
// run.

// Sweep trigger names (metrics label values and event-log fields).
const (
	TriggerCadence   = "cadence"
	TriggerSeal      = "seal"
	TriggerDestroyAS = "destroy-as"
	TriggerEnd       = "end"
	TriggerManual    = "manual"
	// TriggerDrain fires at every submission-ring drain commit, proving no
	// invariant window opens between validate and flush.
	TriggerDrain = "ring-drain"
	// TriggerSnapshot and TriggerFork fire when a sandbox is frozen into a
	// template and when a tenant is instantiated from one — the two moments
	// the CoW refcount ledger (I9) changes shape.
	TriggerSnapshot = "snapshot"
	TriggerFork     = "fork"
)

// WatchdogEvent is one violation observation, serialized as a JSONL line.
// A sweep that finds nothing emits no events (the sweep itself is counted
// in the registry).
type WatchdogEvent struct {
	// Cycles is the virtual-clock timestamp of the sweep.
	Cycles uint64 `json:"cycles"`
	// Trigger names what started the sweep (Trigger* constants).
	Trigger string `json:"trigger"`
	// Severity is "critical", or "injected" when the violation's code was
	// announced by InjectAuditViolation (test/chaos campaigns).
	Severity string `json:"severity"`
	// Code is the typed violation class (audit.Code.String()).
	Code string `json:"code"`
	// Invariant is the invariant broken ("I1".."I9", as listed on Audit).
	Invariant string `json:"invariant"`
	// Frame is the physical frame involved (-1 when not frame-scoped).
	Frame int64 `json:"frame"`
	// Tenant is the tenant being served when the sweep fired (-1 if none).
	Tenant int `json:"tenant"`
	// Detail carries the violation specifics.
	Detail string `json:"detail"`
}

// SweepRecord is one entry of the sweep log: when a sweep ran, what
// triggered it, and how many violations it observed.
type SweepRecord struct {
	Cycles     uint64 `json:"cycles"`
	Trigger    string `json:"trigger"`
	Violations int    `json:"violations"`
}

// watchdogState is the monitor-internal watchdog bookkeeping.
type watchdogState struct {
	every        uint64 // cadence in virtual cycles (0 = boundary-only)
	lastBoundary uint64 // last cadence boundary swept (Now()/every)
	sweeps       uint64
	sweepLog     []SweepRecord
	events       []WatchdogEvent
	injected     map[audit.Code]bool
	nonInjected  uint64
}

// EnableWatchdog switches on continuous invariant sweeps. every is the
// cadence in virtual cycles between sweeps, checked at EMC gate exits
// (0 keeps only the phase-boundary sweeps). Enabling is idempotent;
// re-enabling adjusts the cadence without dropping collected events.
func (mon *Monitor) EnableWatchdog(every uint64) {
	if mon.wd == nil {
		mon.wd = &watchdogState{injected: make(map[audit.Code]bool)}
		mon.Met.Describe(metrics.FamilyWatchdogSweeps,
			"Invariant watchdog sweeps, by trigger.")
		mon.Met.Describe(metrics.FamilyWatchdogViolations,
			"Invariant violations observed by watchdog sweeps, by code and severity.")
	}
	mon.wd.every = every
	if every > 0 {
		mon.wd.lastBoundary = mon.M.Clock.Now() / every
	}
}

// WatchdogEnabled reports whether the watchdog is live.
func (mon *Monitor) WatchdogEnabled() bool { return mon.wd != nil }

// wdMaybeSweep runs a cadence sweep if the virtual clock has crossed an
// aligned cadence boundary since the last one. Called at every EMC gate
// exit; the boundary arithmetic (not "cycles since last sweep") makes the
// sweep schedule a pure function of the clock trajectory, so identically
// seeded runs sweep at identical points.
func (mon *Monitor) wdMaybeSweep() {
	wd := mon.wd
	if wd == nil || wd.every == 0 {
		return
	}
	boundary := mon.M.Clock.Now() / wd.every
	if boundary <= wd.lastBoundary {
		return
	}
	wd.lastBoundary = boundary
	mon.wdSweep(TriggerCadence)
}

// WatchdogSweep forces a sweep now (serving loop checkpoints, the statusz
// healthz probe, tests). No-op while the watchdog is disabled.
func (mon *Monitor) WatchdogSweep(trigger string) {
	if mon.wd == nil {
		return
	}
	if trigger == "" {
		trigger = TriggerManual
	}
	mon.wdSweep(trigger)
}

// wdPhaseSweep is the phase-boundary hook (seal, destroy-as, end, drain,
// snapshot, fork).
func (mon *Monitor) wdPhaseSweep(trigger string) {
	if mon.wd == nil {
		return
	}
	mon.wdSweep(trigger)
}

func (mon *Monitor) wdSweep(trigger string) {
	wd := mon.wd
	wd.sweeps++
	mon.Met.Inc(metrics.FamilyWatchdogSweeps, metrics.KV("trigger", trigger))
	violations := mon.Audit()
	wd.sweepLog = append(wd.sweepLog, SweepRecord{
		Cycles: mon.M.Clock.Now(), Trigger: trigger, Violations: len(violations),
	})
	if len(violations) == 0 {
		return
	}
	now := mon.M.Clock.Now()
	tenant := metrics.NoTenant
	if mon.M.Attr.Active() {
		tenant = mon.M.Attr.Tenant
	}
	for _, v := range violations {
		severity := v.Code.Severity()
		if wd.injected[v.Code] {
			severity = "injected"
		} else {
			wd.nonInjected++
		}
		mon.Met.Inc(metrics.FamilyWatchdogViolations,
			metrics.KV("code", v.Code.String()), metrics.KV("severity", severity))
		frame := int64(-1)
		if v.Frame != mem.NoFrame {
			frame = int64(v.Frame)
		}
		wd.events = append(wd.events, WatchdogEvent{
			Cycles:    now,
			Trigger:   trigger,
			Severity:  severity,
			Code:      v.Code.String(),
			Invariant: v.Code.Invariant(),
			Frame:     frame,
			Tenant:    tenant,
			Detail:    v.Detail,
		})
	}
}

// WatchdogEvents snapshots the violation event log in observation order.
func (mon *Monitor) WatchdogEvents() []WatchdogEvent {
	if mon.wd == nil {
		return nil
	}
	out := make([]WatchdogEvent, len(mon.wd.events))
	copy(out, mon.wd.events)
	return out
}

// WatchdogSweepLog snapshots the sweep log in execution order (one record
// per sweep, violations observed or not).
func (mon *Monitor) WatchdogSweepLog() []SweepRecord {
	if mon.wd == nil {
		return nil
	}
	out := make([]SweepRecord, len(mon.wd.sweepLog))
	copy(out, mon.wd.sweepLog)
	return out
}

// WatchdogSweeps reports the number of sweeps run.
func (mon *Monitor) WatchdogSweeps() uint64 {
	if mon.wd == nil {
		return 0
	}
	return mon.wd.sweeps
}

// WatchdogNonInjected reports how many observed violations were NOT
// announced via InjectAuditViolation — the CI chaos gate fails when this is
// non-zero.
func (mon *Monitor) WatchdogNonInjected() uint64 {
	if mon.wd == nil {
		return 0
	}
	return mon.wd.nonInjected
}

// ExportWatchdogJSONL writes the event log as JSON Lines, one event per
// line, in observation order. Field order is fixed by the struct; output is
// byte-identical for identically seeded runs.
func (mon *Monitor) ExportWatchdogJSONL(w io.Writer) error {
	for _, ev := range mon.WatchdogEvents() {
		// Hand-rolled encoding keeps field order and escaping under our
		// control (encoding/json would also work today, but this guarantees
		// the byte-stability CI diffs).
		_, err := fmt.Fprintf(w,
			"{\"cycles\":%d,\"trigger\":%q,\"severity\":%q,\"code\":%q,\"invariant\":%q,\"frame\":%d,\"tenant\":%d,\"detail\":%q}\n",
			ev.Cycles, ev.Trigger, ev.Severity, ev.Code, ev.Invariant, ev.Frame, ev.Tenant, ev.Detail)
		if err != nil {
			return err
		}
	}
	return nil
}

// InjectAuditViolation deliberately breaks the single-mapping invariant:
// it aliases the lowest-numbered confined frame at a second virtual address
// in its owner's address space — a second mapping of confined memory,
// exactly what I4 exists to prevent. The violation code is registered as
// injected, so watchdog events carry severity "injected" and
// WatchdogNonInjected stays zero — chaos campaigns use this to prove the
// watchdog detects real breaks without tripping the CI gate. Returns the
// expected code.
//
// The tampering is deterministic (lowest confined frame, first free slot in
// the same leaf table) and models a hypothetical monitor bug, not kernel
// behavior: it bypasses the EMC gates and charges no cycles. The alias VA
// is chosen inside the 2 MiB range of an existing confined mapping so the
// page walk reuses live table pages — no PTP allocation, no re-keying, no
// shootdown.
func (mon *Monitor) InjectAuditViolation() (audit.Code, error) {
	if mon.wd == nil {
		return audit.CodeNone, fmt.Errorf("monitor: watchdog not enabled")
	}
	var frame mem.Frame
	found := false
	for f := range mon.confinedOwner {
		if !found || f < frame {
			frame, found = f, true
		}
	}
	if !found {
		return audit.CodeNone, fmt.Errorf("monitor: no confined frames to alias")
	}
	owner := mon.confinedOwner[frame]
	sb := mon.sandboxes[owner]
	if sb == nil {
		return audit.CodeNone, fmt.Errorf("monitor: confined frame %d has no live sandbox", frame)
	}
	as := mon.addrSpaces[sb.asid]
	// Locate the frame's primary VA, then scan its 2 MiB leaf-table range
	// for the first unmapped page slot.
	var primary paging.Addr
	found = false
	for va, f := range sb.confined {
		if f == frame {
			primary, found = va, true
			break
		}
	}
	if !found {
		return audit.CodeNone, fmt.Errorf("monitor: confined frame %d not in owner's map", frame)
	}
	base := primary &^ paging.Addr(1<<21-1)
	for off := paging.Addr(0); off < 1<<21; off += mem.PageSize {
		va := base + off
		if _, mapped := as.userFrames[va]; mapped {
			continue
		}
		if err := as.tables.Map(va, leafFor(frame, MapFlags{Writable: true})); err != nil {
			return audit.CodeNone, err
		}
		as.userFrames[va] = frame
		mon.wd.injected[audit.ConfinedMultiMapped] = true
		return audit.ConfinedMultiMapped, nil
	}
	return audit.CodeNone, fmt.Errorf("monitor: no free alias slot near %#x", primary)
}

// InjectRefcountViolation is the I9 counterpart of InjectAuditViolation: it
// grants the lowest-numbered shared template frame one extra reference that
// no template baseline or live fork accounts for — exactly the bookkeeping
// drift CowRefcountMismatch exists to catch. The code is registered as
// injected so the event carries severity "injected" and WatchdogNonInjected
// stays zero. Returns the expected code. Like InjectAuditViolation, the
// tampering is deterministic, bypasses the EMC gates and charges no cycles.
func (mon *Monitor) InjectRefcountViolation() (audit.Code, error) {
	if mon.wd == nil {
		return audit.CodeNone, fmt.Errorf("monitor: watchdog not enabled")
	}
	var frame mem.Frame
	found := false
	for f := range mon.templateFrames {
		if !found || f < frame {
			frame, found = f, true
		}
	}
	if !found {
		return audit.CodeNone, fmt.Errorf("monitor: no template frames to tamper with")
	}
	if err := mon.M.Phys.IncRef(frame); err != nil {
		return audit.CodeNone, err
	}
	mon.wd.injected[audit.CowRefcountMismatch] = true
	return audit.CowRefcountMismatch, nil
}

// InjectEgressBypass is the I8 counterpart of InjectAuditViolation: it
// forges an allowed-verdict record in the egress ledger for a destination
// the tenant's registered policy denies — as if a frame crossed the proxy
// outside the compiled allowlist. The next sweep must report an
// audit.EgressBypass; the code is registered as injected so the event
// carries severity "injected" and WatchdogNonInjected stays zero. Returns
// the expected code.
func (mon *Monitor) InjectEgressBypass() (audit.Code, error) {
	if mon.wd == nil {
		return audit.CodeNone, fmt.Errorf("monitor: watchdog not enabled")
	}
	if mon.Egress == nil {
		return audit.CodeNone, fmt.Errorf("monitor: no egress ledger wired")
	}
	if _, err := mon.Egress.InjectBypass(); err != nil {
		return audit.CodeNone, err
	}
	mon.wd.injected[audit.EgressBypass] = true
	return audit.EgressBypass, nil
}
