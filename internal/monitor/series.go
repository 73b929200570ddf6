package monitor

import "github.com/asterisc-release/erebor-go/internal/metrics"

// gateSeries are the series every EMC and every ring drain write, as
// handles on one registry. The gate resolves them once per registry (Boot
// makes one, and the harness installs the world's before any EMC fires),
// so a crossing builds no label key. Each series still appears in exports
// only once it is written.
type gateSeries struct {
	met *metrics.Registry

	emc       [metrics.NumEMCKinds]*metrics.Handle // FamilyEMC{kind}
	emcCycles [metrics.NumEMCKinds]*metrics.Handle // FamilyEMCCycles{kind}

	ringDepth     *metrics.Handle                  // FamilyEMCRingDepth
	ringHighWater *metrics.Handle                  // FamilyHighWater{resource=emc-ring-depth}
	drainOK       *metrics.Handle                  // FamilyEMCRingDrains{outcome=committed}
	drainRejected *metrics.Handle                  // FamilyEMCRingDrains{outcome=rejected}
	ringOps       [len(mmuOpNames)]*metrics.Handle // FamilyEMCRingOps{op}
	ipisSent      *metrics.Handle                  // FamilyRingCoalescedIPIs{result=sent}
	ipisSkipped   *metrics.Handle                  // FamilyRingCoalescedIPIs{result=skipped}
}

func newGateSeries(met *metrics.Registry) *gateSeries {
	g := &gateSeries{
		met:           met,
		ringDepth:     met.Handle(metrics.FamilyEMCRingDepth),
		ringHighWater: met.Handle(metrics.FamilyHighWater, metrics.KV("resource", metrics.ResourceEMCRingDepth)),
		drainOK:       met.Handle(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "committed")),
		drainRejected: met.Handle(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "rejected")),
		ipisSent:      met.Handle(metrics.FamilyRingCoalescedIPIs, metrics.KV("result", "sent")),
		ipisSkipped:   met.Handle(metrics.FamilyRingCoalescedIPIs, metrics.KV("result", "skipped")),
	}
	for k := range g.emc {
		kind := metrics.KV("kind", metrics.EMCKind(k).String())
		g.emc[k] = met.Handle(metrics.FamilyEMC, kind)
		g.emcCycles[k] = met.Handle(metrics.FamilyEMCCycles, kind)
	}
	for op := range g.ringOps {
		g.ringOps[op] = met.Handle(metrics.FamilyEMCRingOps, metrics.KV("op", MMUOp(op).String()))
	}
	return g
}

// series returns the gate's handles on mon.Met, resolving them when the
// registry changed since the last crossing.
func (mon *Monitor) series() *gateSeries {
	if g := mon.gateSer; g != nil && g.met == mon.Met {
		return g
	}
	mon.gateSer = newGateSeries(mon.Met)
	return mon.gateSer
}

// emcFrames and emcSpans name each gate kind's profiler frame and trace
// span, so a crossing builds neither string.
var emcFrames, emcSpans = func() (frames, spans [metrics.NumEMCKinds]string) {
	for k := range frames {
		name := metrics.EMCKind(k).String()
		frames[k], spans[k] = "monitor/emc/"+name, "emc/"+name
	}
	return
}()
