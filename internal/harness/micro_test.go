package harness

import (
	"errors"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/kernel"
)

// perOp returns the mean cycles of one op, and the first failing op, a
// refused instruction's trap included, ends the measurement with an error
// naming the row instead of a panic.
func TestPerOpNamesFailingRow(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeNative, MemMB: 32})
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(0)
	cycles, err := perOp(w, "CHARGE", 4, func() error {
		n++
		w.M.Clock.Charge(100 * n)
		return trapErr(nil)
	})
	if err != nil || cycles != 250 {
		t.Fatalf("perOp = %d, %v; want 250 cycles (mean of 100..400), no error", cycles, err)
	}

	calls := 0
	refused := &cpu.Trap{Vector: 13, Detail: "CR0.WP is monitor-owned"}
	cycles, err = perOp(w, "CR", 8, func() error {
		calls++
		if calls == 3 {
			return trapErr(refused)
		}
		return nil
	})
	if calls != 3 || cycles != 0 {
		t.Errorf("perOp ran %d ops and returned %d cycles; want to stop at the third with 0", calls, cycles)
	}
	var tr *cpu.Trap
	if err == nil || !strings.HasPrefix(err.Error(), "CR row (native): ") || !errors.As(err, &tr) || tr != refused {
		t.Errorf("perOp error = %v; want the refused trap wrapped under \"CR row (native)\"", err)
	}
}

func TestTable3Transitions(t *testing.T) {
	rows, err := MeasureTable3()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"EMC":     costs.EMCRoundTrip,
		"SYSCALL": costs.SyscallRoundTrip,
		"TDCALL":  costs.TDCallRoundTrip,
		"VMCALL":  costs.VMCallRoundTrip,
	}
	for _, r := range rows {
		w := want[r.Name]
		if r.Cycles != w {
			t.Errorf("%s: measured %d cycles, want %d (paper calibration)", r.Name, r.Cycles, w)
		}
		t.Logf("%-8s %5d cycles  %.2fx EMC", r.Name, r.Cycles, r.RelEMC)
	}
	// Relative ordering from the paper: SYSCALL < EMC < VMCALL < TDCALL.
	byName := map[string]uint64{}
	for _, r := range rows {
		byName[r.Name] = r.Cycles
	}
	if !(byName["SYSCALL"] < byName["EMC"] && byName["EMC"] < byName["VMCALL"] && byName["VMCALL"] < byName["TDCALL"]) {
		t.Errorf("transition ordering broken: %v", byName)
	}
}

func TestTable4PrivOps(t *testing.T) {
	rows, err := MeasureTable4()
	if err != nil {
		t.Fatal(err)
	}
	// Paper values (cycles): {native, erebor}.
	paper := map[string][2]uint64{
		"MMU":  {23, 1345},
		"CR":   {294, 1593},
		"SMAP": {62, 1291},
		"IDT":  {260, 1369},
		"MSR":  {364, 1613},
		"GHCI": {126806, 128081},
	}
	for _, r := range rows {
		p := paper[r.Name]
		t.Logf("%-5s native=%6d (paper %6d)  erebor=%6d (paper %6d)  ratio=%.2fx",
			r.Name, r.Native, p[0], r.Erebor, p[1], r.Ratio())
		if r.Erebor <= r.Native {
			t.Errorf("%s: Erebor (%d) not more expensive than native (%d)", r.Name, r.Erebor, r.Native)
		}
		// The calibrated ops must land within 25%% of the paper's cycles
		// (exact for the pure-transition parts; small measurement framing
		// differences are tolerated).
		for i, got := range []uint64{r.Native, r.Erebor} {
			wantV := p[i]
			lo, hi := wantV-wantV/4, wantV+wantV/4
			if got < lo || got > hi {
				t.Errorf("%s[%d]: %d outside 25%% of paper value %d", r.Name, i, got, wantV)
			}
		}
	}
}
