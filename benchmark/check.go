package main

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/harness"
)

// table3Want and table4Want are the cycle counts EXPERIMENTS.md records for
// the paper's Tables 3 and 4 ({native, Erebor} for Table 4). The
// calibrated model must reproduce them exactly.
var (
	table3Want = map[string]uint64{"EMC": 1224, "SYSCALL": 684, "TDCALL": 5276, "VMCALL": 4031}
	table4Want = map[string][2]uint64{
		"MMU": {23, 1345}, "CR": {294, 1593}, "SMAP": {62, 1292},
		"IDT": {260, 1369}, "MSR": {364, 1613}, "GHCI": {126806, 128081},
	}
)

// checkResult is what a check process reports: failed cells of the
// Table 3/4 gate and, for a workload with a reference, the reference run's
// output and virtual cycles.
type checkResult struct {
	Errors  []string `json:"errors,omitempty"`
	Output  string   `json:"output,omitempty"`
	VCycles uint64   `json:"vcycles,omitempty"`
}

// runCheck runs the gates of one workload's run in this process.
func runCheck(wl *workload, seed int64) (*checkResult, error) {
	bad, err := checkTables()
	if err != nil {
		return nil, err
	}
	res := &checkResult{Errors: bad}
	if wl.reference != nil {
		if res.Output, res.VCycles, err = wl.reference(seed); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	return res, nil
}

// checkTables measures Tables 3 and 4 and returns one line per cell that
// differs from the recorded value.
func checkTables() ([]string, error) {
	var bad []string
	t3, err := harness.MeasureTable3()
	if err != nil {
		return nil, fmt.Errorf("table 3: %w", err)
	}
	seen := 0
	for _, row := range t3 {
		if want, ok := table3Want[row.Name]; ok {
			seen++
			if row.Cycles != want {
				bad = append(bad, fmt.Sprintf("table 3 %s: %d cycles, want %d", row.Name, row.Cycles, want))
			}
		}
	}
	t4, err := harness.MeasureTable4()
	if err != nil {
		return nil, fmt.Errorf("table 4: %w", err)
	}
	for _, row := range t4 {
		if want, ok := table4Want[row.Name]; ok {
			seen++
			if got := [2]uint64{row.Native, row.Erebor}; got != want {
				bad = append(bad, fmt.Sprintf("table 4 %s: %v cycles, want %v", row.Name, got, want))
			}
		}
	}
	if seen != len(table3Want)+len(table4Want) {
		bad = append(bad, fmt.Sprintf("tables 3 and 4: %d of %d rows present", seen, len(table3Want)+len(table4Want)))
	}
	return bad, nil
}
