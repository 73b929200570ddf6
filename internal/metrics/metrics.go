// Package metrics is the platform's telemetry sink: a deterministic
// registry of labeled counters, gauges and log2 latency histograms that the
// monitor, kernel, secure channel and serving path all write through.
//
// Design constraints (DESIGN.md §12):
//
//   - Never touches the virtual clock. Recording a sample is pure Go-side
//     bookkeeping; a metered run and an unmetered run of the same workload
//     observe identical cycle counts (the PR 2 guarantee extends to the
//     registry).
//   - Deterministic. Snapshots and exports traverse families and series in
//     sorted order, so two identically-seeded runs produce byte-identical
//     OpenMetrics output — the CI determinism gate diffs them directly.
//   - Nil-safe. The zero *Registry is a permanently disabled registry:
//     every method no-ops (reads return zero values), so optional plumbing
//     needs no guards at hook sites.
//   - Single sink. The registry replaces the ad-hoc counter maps that grew
//     inside monitor.Stats (EMCByKind, CyclesByKind) and trace.Recorder
//     (Counts): those surfaces now read back from a registry family.
//
// Histogram families use the fixed log2 bucket Histogram the flight
// recorder also keeps per span, so span latencies and registry latencies
// digest and export identically.
package metrics

import (
	"sort"
	"strings"
	"sync"
)

// Label is one key=value dimension of a series.
type Label struct {
	Key   string
	Value string
}

// KV builds a label.
func KV(key, value string) Label { return Label{Key: key, Value: value} }

// Kind is the metric family type.
type Kind uint8

// Family kinds (OpenMetrics types).
const (
	Counter Kind = iota
	Gauge
	HistogramKind
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case HistogramKind:
		return "histogram"
	}
	return "unknown"
}

// series is one labeled instrument inside a family.
type series struct {
	labels []Label
	value  uint64     // counter total or gauge level
	hist   *Histogram // histogram families only
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series
}

// Registry is the telemetry sink. The zero value of *Registry (nil) is a
// valid, permanently disabled registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Enabled reports whether the registry is live (hook-site convenience).
func (r *Registry) Enabled() bool { return r != nil }

// canonical renders a label set as a stable map key. Labels are sorted by
// key; '\xff' cannot appear in a well-formed label, so the join is
// unambiguous.
func canonical(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte('\xff')
		}
		b.WriteString(l.Key)
		b.WriteByte('\xfe')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a sorted copy of the label set.
func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// getSeries finds or creates the series for (name, labels). The first
// writer fixes the family kind; a later write of a different kind panics —
// in a deterministic simulation that is a wiring bug, never load-dependent.
func (r *Registry) getSeries(name string, kind Kind, labels []Label) *series {
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic("metrics: family " + name + " is a " + fam.kind.String() +
			", written as " + kind.String())
	}
	sorted := sortLabels(labels)
	key := canonical(sorted)
	s := fam.series[key]
	if s == nil {
		s = &series{labels: sorted}
		if kind == HistogramKind {
			s.hist = &Histogram{}
		}
		fam.series[key] = s
	}
	return s
}

// Describe attaches help text to a family (created lazily if unseen; the
// kind is fixed by the first sample written).
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fam := r.families[name]; fam != nil {
		fam.help = help
		return
	}
	// Remember the help for when the family appears. Kind is provisional;
	// the first write fixes it.
	r.families[name] = &family{name: name, help: help, kind: Counter, series: make(map[string]*series)}
}

// Add increments a counter series by delta.
func (r *Registry) Add(name string, delta uint64, labels ...Label) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	r.getSeries(name, Counter, labels).value += delta
	r.mu.Unlock()
}

// Inc increments a counter series by one.
func (r *Registry) Inc(name string, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.getSeries(name, Counter, labels).value++
	r.mu.Unlock()
}

// Set sets a gauge series to v.
func (r *Registry) Set(name string, v uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.getSeries(name, Gauge, labels).value = v
	r.mu.Unlock()
}

// SetMax raises a gauge series to v if v exceeds its current level — the
// high-watermark idiom for bounded resources (ring depth, queue occupancy,
// trace-ring fill). Lower observations leave the gauge untouched, so the
// exported level is the maximum ever seen.
func (r *Registry) SetMax(name string, v uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.getSeries(name, Gauge, labels)
	if v > s.value {
		s.value = v
	}
	r.mu.Unlock()
}

// Observe adds one observation to a histogram series.
func (r *Registry) Observe(name string, v uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.getSeries(name, HistogramKind, labels).hist.Observe(v)
	r.mu.Unlock()
}

// ObserveEx adds one observation with an exemplar (a span/session ID
// retained in the observation's bucket; see Histogram.ObserveEx).
// The SLO engine reads exemplars back to link a blown objective to the
// span tree that explains it.
func (r *Registry) ObserveEx(name string, v, exemplar uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.getSeries(name, HistogramKind, labels).hist.ObserveEx(v, exemplar)
	r.mu.Unlock()
}

// Value reads a counter or gauge series (0 when absent or disabled).
func (r *Registry) Value(name string, labels ...Label) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		return 0
	}
	s := fam.series[canonical(sortLabels(labels))]
	if s == nil {
		return 0
	}
	return s.value
}

// Hist reads a histogram series snapshot (zero Histogram when absent).
func (r *Registry) Hist(name string, labels ...Label) Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		return Histogram{}
	}
	s := fam.series[canonical(sortLabels(labels))]
	if s == nil || s.hist == nil {
		return Histogram{}
	}
	return *s.hist
}

// SeriesValue is one series of a family in a snapshot.
type SeriesValue struct {
	Labels []Label
	Value  uint64
	Hist   *Histogram // histogram families only (copy)
}

// FamilySnapshot is one family in stable order.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesValue
}

// Series snapshots every series of one family, sorted by canonical label
// string (nil when the family is absent or the registry disabled).
func (r *Registry) Series(name string) []SeriesValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		return nil
	}
	return snapshotFamily(fam).Series
}

func snapshotFamily(fam *family) FamilySnapshot {
	keys := make([]string, 0, len(fam.series))
	for k := range fam.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := FamilySnapshot{Name: fam.name, Help: fam.help, Kind: fam.kind}
	for _, k := range keys {
		s := fam.series[k]
		sv := SeriesValue{Labels: append([]Label(nil), s.labels...), Value: s.value}
		if s.hist != nil {
			h := *s.hist
			sv.Hist = &h
		}
		out.Series = append(out.Series, sv)
	}
	return out
}

// Snapshot copies the whole registry in stable order: families sorted by
// name, series sorted by canonical label string. Families that were only
// Described (no samples) are omitted.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n, fam := range r.families {
		if len(fam.series) == 0 {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]FamilySnapshot, 0, len(names))
	for _, n := range names {
		out = append(out, snapshotFamily(r.families[n]))
	}
	return out
}

// CounterMap flattens a family into a map keyed by one label's value
// (legacy Stats-map compatibility: EMCByKind and friends read back through
// this). Series missing the label key are skipped.
func (r *Registry) CounterMap(name, labelKey string) map[string]uint64 {
	if r == nil {
		return nil
	}
	series := r.Series(name)
	if series == nil {
		return nil
	}
	out := make(map[string]uint64, len(series))
	for _, s := range series {
		for _, l := range s.Labels {
			if l.Key == labelKey {
				out[l.Value] += s.Value
				break
			}
		}
	}
	return out
}

// TraceEventsFamily is the registry family holding the flight recorder's
// event tallies, labeled {kind, label}.
const TraceEventsFamily = "erebor_trace_events"

// TraceDroppedFamily is the registry family counting flight-recorder ring
// wraparound drops (surfacing trace.Recorder.Dropped at runtime, so event
// loss can't silently corrupt a critical-path analysis).
const TraceDroppedFamily = "erebor_trace_dropped_events"

// Reset discards every family and series (tests; world reuse).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = make(map[string]*family)
}
