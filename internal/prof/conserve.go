package prof

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// MetricsTotals reads the per-(tenant, phase) cycle attribution out of a
// metrics registry (FamilyTenantPhaseCycles) in the profiler's Key shape —
// the other side of the conservation equation.
func MetricsTotals(met *metrics.Registry) map[Key]uint64 {
	out := make(map[Key]uint64)
	for _, sv := range met.Series(metrics.FamilyTenantPhaseCycles) {
		k := Key{Tenant: metrics.NoTenant}
		for _, l := range sv.Labels {
			switch l.Key {
			case "tenant":
				k.Tenant, _ = strconv.Atoi(l.Value)
			case "phase":
				k.Phase = l.Value
			}
		}
		out[k] += sv.Value
	}
	return out
}

// CheckConservation compares the profiler's per-(tenant, phase) stack totals
// against the registry's attribution and returns one line per discrepancy,
// sorted (empty means every bucket conserves exactly and no cycles were
// dropped outside the window). Both sides observe the same Clock.Charge
// calls over the same window, so any mismatch is a profiler bug — callers
// should hard-fail on it, not warn.
func (p *Profiler) CheckConservation(met *metrics.Registry) []string {
	var bad []string
	want := MetricsTotals(met)
	got := p.Totals()
	keys := make(map[Key]bool, len(want)+len(got))
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	for k := range keys {
		if got[k] != want[k] {
			bad = append(bad, fmt.Sprintf("tenant %d phase %q: profiler %d cycles, metrics %d",
				k.Tenant, k.Phase, got[k], want[k]))
		}
	}
	if d := p.Dropped(); d > 0 {
		bad = append(bad, fmt.Sprintf("%d cycles observed outside any phase (dropped)", d))
	}
	if p != nil && p.attr.FrameDepth() != 0 {
		bad = append(bad, fmt.Sprintf("frame stack unbalanced: depth %d at check time", p.attr.FrameDepth()))
	}
	sort.Strings(bad)
	return bad
}
