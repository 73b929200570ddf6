// Package audit defines the typed vocabulary of security-invariant
// violations that Monitor.Audit and the continuous watchdog report.
//
// Each Code names one way a §8 invariant (I1–I7, plus the serving path's
// egress invariant I8 and the snapshot/fork refcount invariant I9) can
// fail. Typed codes —
// instead of the fmt.Sprintf strings Audit originally returned — let tests
// assert on the class of a violation rather than a substring, let the
// watchdog aggregate violations into metrics series, and give the JSONL
// event log a stable machine-readable schema.
package audit

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/mem"
)

// Code identifies one violation class. The numeric values are stable and
// append-only: they appear in JSONL event logs and metrics labels.
type Code uint8

// Violation classes, grouped by the invariant they break.
const (
	// CodeNone is the zero value: no violation.
	CodeNone Code = iota

	// I1 — every page-table page is keyed KeyPTP in the direct map.
	PTPUnmapped
	PTPMiskeyed

	// I2 — every monitor frame is keyed KeyMonitor in the direct map.
	MonitorFrameUnmapped
	MonitorFrameMiskeyed

	// I3 — W-xor-X; kernel text never writable.
	KernelTextWritable

	// I4 — confined frames are pinned, CVM-private, single-mapped in the
	// owning sandbox's address space.
	ConfinedMetaMissing
	ConfinedUnpinned
	ConfinedShared
	ConfinedMultiMapped
	ConfinedForeignMapping

	// I5 — sealed common regions have no writable mapping anywhere.
	SealedWritable

	// I6 — only shared-io frames are CVM-shared.
	SharedOutsideIO

	// I7 — no monitor or PTP frame is mapped into any user address space.
	PTPUserMapped
	MonitorFrameUserMapped

	// I8 — no frame crosses the proxy to a destination outside the
	// tenant's compiled egress allowlist.
	EgressBypass
	EgressPolicyMissing

	// I9 — copy-on-write refcount conservation: every template frame's
	// refcount equals its template baseline plus its live fork references,
	// no refcount>1 frame has a writable mapping anywhere, and every
	// mapping of a shared frame belongs to a sandbox forked from its
	// template.
	CowRefcountMismatch
	CowWritableShared
	CowForeignMapping

	numCodes
)

var codeNames = [numCodes]string{
	CodeNone:               "none",
	PTPUnmapped:            "ptp-unmapped",
	PTPMiskeyed:            "ptp-miskeyed",
	MonitorFrameUnmapped:   "monitor-frame-unmapped",
	MonitorFrameMiskeyed:   "monitor-frame-miskeyed",
	KernelTextWritable:     "kernel-text-writable",
	ConfinedMetaMissing:    "confined-meta-missing",
	ConfinedUnpinned:       "confined-unpinned",
	ConfinedShared:         "confined-shared",
	ConfinedMultiMapped:    "confined-multi-mapped",
	ConfinedForeignMapping: "confined-foreign-mapping",
	SealedWritable:         "sealed-writable",
	SharedOutsideIO:        "shared-outside-io",
	PTPUserMapped:          "ptp-user-mapped",
	MonitorFrameUserMapped: "monitor-frame-user-mapped",
	EgressBypass:           "egress-bypass",
	EgressPolicyMissing:    "egress-policy-missing",
	CowRefcountMismatch:    "cow-refcount-mismatch",
	CowWritableShared:      "cow-writable-shared",
	CowForeignMapping:      "cow-foreign-mapping",
}

var codeInvariants = [numCodes]string{
	CodeNone:               "",
	PTPUnmapped:            "I1",
	PTPMiskeyed:            "I1",
	MonitorFrameUnmapped:   "I2",
	MonitorFrameMiskeyed:   "I2",
	KernelTextWritable:     "I3",
	ConfinedMetaMissing:    "I4",
	ConfinedUnpinned:       "I4",
	ConfinedShared:         "I4",
	ConfinedMultiMapped:    "I4",
	ConfinedForeignMapping: "I4",
	SealedWritable:         "I5",
	SharedOutsideIO:        "I6",
	PTPUserMapped:          "I7",
	MonitorFrameUserMapped: "I7",
	EgressBypass:           "I8",
	EgressPolicyMissing:    "I8",
	CowRefcountMismatch:    "I9",
	CowWritableShared:      "I9",
	CowForeignMapping:      "I9",
}

// String names the code (stable; used in metrics labels and event logs).
func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "unknown"
}

// Invariant names the invariant the code violates ("I1".."I9").
func (c Code) Invariant() string {
	if int(c) < len(codeInvariants) {
		return codeInvariants[c]
	}
	return ""
}

// Severity classifies a code for alerting. Every current code is
// "critical" — any invariant break voids the isolation argument — but the
// level is per-code so future advisory checks can grade lower.
func (c Code) Severity() string {
	if c == CodeNone {
		return "none"
	}
	return "critical"
}

// Violation is one concrete invariant break found by a sweep.
type Violation struct {
	// Code is the violation class.
	Code Code
	// Frame is the physical frame involved (mem.NoFrame when not
	// frame-scoped).
	Frame mem.Frame
	// Detail carries the human-oriented specifics (addresses, key values,
	// region names) that the old Sprintf strings interleaved with the class.
	Detail string
}

// String renders the violation for logs and test failures, e.g.
// "I4/confined-multi-mapped frame 120: mapped 2 times".
func (v Violation) String() string {
	s := v.Code.Invariant() + "/" + v.Code.String()
	if v.Frame != mem.NoFrame {
		s += fmt.Sprintf(" frame %d", v.Frame)
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// Contains reports whether any violation in vs has the given code.
func Contains(vs []Violation, c Code) bool {
	for _, v := range vs {
		if v.Code == c {
			return true
		}
	}
	return false
}
