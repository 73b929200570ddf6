package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// HzPerSecond mirrors costs.HzPerSecond (2.1 GHz) without importing the
// cost model.
const HzPerSecond = 2_100_000_000

// CyclesToMicros converts virtual cycles to microseconds at 2.1 GHz.
func CyclesToMicros(c uint64) float64 {
	return float64(c) / (HzPerSecond / 1e6)
}

// TrackName labels an export track ("monitor", "cpu-3", "sandbox-7", ...).
func TrackName(t int32) string { return trackName(t) }

// CoreOf reverses CoreTrack: the vCPU ID behind a per-core dispatch track,
// or false for every other track.
func CoreOf(t int32) (int, bool) {
	if t >= trackCoreBase && t < sandboxTrackBase {
		return int(t - trackCoreBase), true
	}
	return 0, false
}

// trackName labels an export track.
func trackName(t int32) string {
	switch t {
	case TrackMonitor:
		return "monitor"
	case TrackKernel:
		return "kernel"
	case TrackClient:
		return "client"
	case TrackServer:
		return "server"
	}
	if t >= sandboxTrackBase {
		return "sandbox-" + strconv.FormatInt(int64(t-sandboxTrackBase), 10)
	}
	if t >= trackCoreBase {
		return "cpu-" + strconv.FormatInt(int64(t-trackCoreBase), 10)
	}
	return "track-" + strconv.FormatInt(int64(t), 10)
}

// micros formats a cycle count as fixed-precision microseconds. Fixed
// 3-decimal formatting keeps exports byte-stable across runs and platforms.
func micros(cycles uint64) string {
	return strconv.FormatFloat(CyclesToMicros(cycles), 'f', 3, 64)
}

// jsonEscape escapes a label for direct embedding in a JSON string.
func jsonEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			out = append(out, '\\', c)
		case c < 0x20:
			out = append(out, []byte(fmt.Sprintf("\\u%04x", c))...)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// ExportChromeTrace writes the retained events as Chrome trace_event JSON
// (the "JSON Array Format" with metadata), loadable in chrome://tracing and
// Perfetto. Each track becomes a named thread under one process; spans are
// complete ("X") events, instants are thread-scoped "i" events. Timestamps
// are virtual-clock microseconds at 2.1 GHz.
//
// The writer receives deterministic bytes: events in buffer order, tracks
// sorted, fixed float formatting — the basis of the golden-file CI check.
func (r *Recorder) ExportChromeTrace(w io.Writer) error {
	return ExportChromeEvents(w, r.Snapshot(), r.Dropped())
}

// ExportChromeEvents writes an explicit event list in the same Chrome
// trace_event format as ExportChromeTrace. It exists so filtered views
// (erebor-trace -tenant / -track) export byte-identically to full ones.
func ExportChromeEvents(w io.Writer, events []Event, dropped uint64) error {
	tracks := map[int32]bool{}
	for _, ev := range events {
		tracks[ev.Track] = true
	}
	sorted := make([]int32, 0, len(tracks))
	for t := range tracks {
		sorted = append(sorted, t)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(w, line)
		return err
	}
	for _, t := range sorted {
		line := fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}`,
			t, trackName(t))
		if err := emit(line); err != nil {
			return err
		}
		line = fmt.Sprintf(`{"name":"thread_sort_index","ph":"M","pid":1,"tid":%d,"args":{"sort_index":%d}}`,
			t, t)
		if err := emit(line); err != nil {
			return err
		}
	}
	for _, ev := range events {
		name := ev.Label
		if name == "" {
			name = ev.Kind.String()
		}
		// Causal identity rides in args: "span" for events with their own
		// identity, "parent" for any event linked into a tree. Both are
		// omitted when zero, so identity-free events keep the PR 2 shape.
		args := ""
		switch {
		case ev.Span != 0 && ev.Parent != 0:
			args = fmt.Sprintf(`,"args":{"span":%d,"parent":%d}`, ev.Span, ev.Parent)
		case ev.Span != 0:
			args = fmt.Sprintf(`,"args":{"span":%d}`, ev.Span)
		case ev.Parent != 0:
			args = fmt.Sprintf(`,"args":{"parent":%d}`, ev.Parent)
		}
		var line string
		if ev.Dur > 0 {
			line = fmt.Sprintf(`{"name":"%s","cat":"%s","ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d%s}`,
				jsonEscape(name), ev.Kind, micros(ev.TS), micros(ev.Dur), ev.Track, args)
		} else {
			line = fmt.Sprintf(`{"name":"%s","cat":"%s","ph":"i","s":"t","ts":%s,"pid":1,"tid":%d%s}`,
				jsonEscape(name), ev.Kind, micros(ev.TS), ev.Track, args)
		}
		if err := emit(line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n],\"otherData\":{\"dropped_events\":\"%d\",\"clock\":\"virtual-cycles@2.1GHz\"}}\n",
		dropped)
	return err
}

// promEscape escapes a Prometheus label value: backslash, double quote and
// newline. Callers embed the result in plain "..." — formatting it with %q
// would escape a second time (the bug TestPrometheusLabelEscaping guards).
func promEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '"':
			out = append(out, '\\', c)
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// ExportPrometheus writes the recorder's counters and latency histograms in
// the Prometheus text exposition format (sorted label sets; cumulative
// log2 buckets with `le` in cycles). Deterministic for a fixed recorder
// state.
func (r *Recorder) ExportPrometheus(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# recorder disabled\n")
		return err
	}
	counts := r.Counts()
	hists := r.Histograms()

	if _, err := io.WriteString(w,
		"# HELP erebor_trace_events_total Events recorded by the flight recorder, by kind and label.\n"+
			"# TYPE erebor_trace_events_total counter\n"); err != nil {
		return err
	}
	ckeys := make([]string, 0, len(counts))
	for k := range counts {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	for _, k := range ckeys {
		kind, label := k, ""
		for i := 0; i < len(k); i++ {
			if k[i] == '|' {
				kind, label = k[:i], k[i+1:]
				break
			}
		}
		if _, err := fmt.Fprintf(w, "erebor_trace_events_total{kind=\"%s\",label=\"%s\"} %d\n",
			promEscape(kind), promEscape(label), counts[k]); err != nil {
			return err
		}
	}

	if _, err := fmt.Fprintf(w,
		"# HELP erebor_trace_dropped_events_total Events discarded by ring-buffer wraparound.\n"+
			"# TYPE erebor_trace_dropped_events_total counter\n"+
			"erebor_trace_dropped_events_total %d\n", r.Dropped()); err != nil {
		return err
	}

	if _, err := io.WriteString(w,
		"# HELP erebor_span_cycles Span latencies in virtual cycles (log2 buckets).\n"+
			"# TYPE erebor_span_cycles histogram\n"); err != nil {
		return err
	}
	hkeys := make([]string, 0, len(hists))
	for k := range hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := hists[k]
		span := promEscape(k)
		var cum uint64
		lo, hi := -1, -1
		for i := 0; i < metrics.NumBuckets; i++ {
			if h.Buckets[i] != 0 {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		for i := lo; i >= 0 && i <= hi; i++ {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "erebor_span_cycles_bucket{span=\"%s\",le=\"%d\"} %d\n",
				span, metrics.BucketUpper(i), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "erebor_span_cycles_bucket{span=\"%s\",le=\"+Inf\"} %d\n", span, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "erebor_span_cycles_sum{span=\"%s\"} %d\n", span, h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "erebor_span_cycles_count{span=\"%s\"} %d\n", span, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// SpanSummary is the p50/p99 digest of one histogram, reported both in
// cycles and in microseconds at the simulated 2.1 GHz.
type SpanSummary struct {
	Span      string  `json:"span"`
	Count     uint64  `json:"count"`
	SumCycles uint64  `json:"sum_cycles"`
	MinCycles uint64  `json:"min_cycles"`
	MaxCycles uint64  `json:"max_cycles"`
	P50Cycles uint64  `json:"p50_cycles"`
	P99Cycles uint64  `json:"p99_cycles"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

// Summaries digests every histogram, sorted by span name (bench JSON).
func (r *Recorder) Summaries() []SpanSummary {
	return Summarize(r.Histograms())
}

// Summarize digests a histogram snapshot (e.g. one retained from a
// scenario run), sorted by span name.
func Summarize(hists map[string]metrics.Histogram) []SpanSummary {
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SpanSummary, 0, len(keys))
	for _, k := range keys {
		h := hists[k]
		p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
		out = append(out, SpanSummary{
			Span: k, Count: h.Count, SumCycles: h.Sum,
			MinCycles: h.Min, MaxCycles: h.Max,
			P50Cycles: p50, P99Cycles: p99,
			P50Micros: CyclesToMicros(p50), P99Micros: CyclesToMicros(p99),
		})
	}
	return out
}
