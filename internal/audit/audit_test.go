package audit

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/mem"
)

func TestCodeStringsStable(t *testing.T) {
	// The names are wire format (metrics labels, JSONL): lock them down.
	want := map[Code]string{
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
	if len(want) != int(numCodes) {
		t.Fatalf("test covers %d codes, enum has %d", len(want), numCodes)
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if Code(200).String() != "unknown" {
		t.Errorf("out-of-range String() = %q", Code(200).String())
	}
}

func TestCodeInvariants(t *testing.T) {
	cases := map[Code]string{
		PTPUnmapped:            "I1",
		MonitorFrameMiskeyed:   "I2",
		KernelTextWritable:     "I3",
		ConfinedMultiMapped:    "I4",
		SealedWritable:         "I5",
		SharedOutsideIO:        "I6",
		MonitorFrameUserMapped: "I7",
		EgressBypass:           "I8",
		EgressPolicyMissing:    "I8",
		CowRefcountMismatch:    "I9",
		CowWritableShared:      "I9",
		CowForeignMapping:      "I9",
	}
	for c, inv := range cases {
		if c.Invariant() != inv {
			t.Errorf("%v.Invariant() = %q, want %q", c, c.Invariant(), inv)
		}
	}
	for c := Code(1); c < numCodes; c++ {
		if c.Invariant() == "" {
			t.Errorf("%v has no invariant", c)
		}
		if c.Severity() != "critical" {
			t.Errorf("%v severity = %q", c, c.Severity())
		}
	}
	if CodeNone.Severity() != "none" {
		t.Errorf("CodeNone severity = %q", CodeNone.Severity())
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Code: ConfinedMultiMapped, Frame: 120, Detail: "mapped 2 times"}
	if got, want := v.String(), "I4/confined-multi-mapped frame 120: mapped 2 times"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	v = Violation{Code: SharedOutsideIO, Frame: mem.NoFrame}
	if got, want := v.String(), "I6/shared-outside-io"; got != want {
		t.Errorf("frameless String() = %q, want %q", got, want)
	}
}

func TestCodesAndContains(t *testing.T) {
	vs := []Violation{
		{Code: ConfinedUnpinned, Frame: 1},
		{Code: SealedWritable, Frame: 2},
	}
	if !Contains(vs, SealedWritable) || Contains(vs, PTPMiskeyed) {
		t.Fatal("Contains wrong")
	}
}
