package metrics

import (
	"fmt"
	"io"
)

// escape escapes a label value for the OpenMetrics text format: backslash,
// double quote and newline are the only characters that need quoting.
func escape(s string) string {
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

// labelString renders a sorted label set as {k="v",...} ("" when empty).
// An extra label ("le" for histogram buckets) can be appended.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	s := "{"
	for i, l := range all {
		if i > 0 {
			s += ","
		}
		s += l.Key + `="` + escape(l.Value) + `"`
	}
	return s + "}"
}

// ExportOpenMetrics writes the registry in the OpenMetrics text exposition
// format: families sorted by name, series sorted by canonical label string,
// counters suffixed `_total`, histograms expanded into cumulative log2
// `_bucket`/`_sum`/`_count` series, terminated by `# EOF`. Output is
// byte-deterministic for a fixed registry state — the CI determinism gate
// diffs two metered runs' exports directly.
func (r *Registry) ExportOpenMetrics(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}
	for _, fam := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Kind); err != nil {
			return err
		}
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, escape(fam.Help)); err != nil {
				return err
			}
		}
		for _, s := range fam.Series {
			if err := WriteSeries(w, fam.Name, fam.Kind, s); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// WriteSeries writes one series' sample lines in the text exposition
// format: a counter as `name_total`, a gauge as `name`, and a histogram
// expanded into cumulative log2 buckets. Only the occupied bucket range is
// emitted, plus the mandatory +Inf. The flight recorder's Prometheus export
// writes its series through it too.
func WriteSeries(w io.Writer, name string, kind Kind, s SeriesValue) error {
	switch kind {
	case Counter:
		_, err := fmt.Fprintf(w, "%s_total%s %d\n", name, labelString(s.Labels), s.Value)
		return err
	case Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelString(s.Labels), s.Value)
		return err
	}
	h := s.Hist
	if h == nil {
		h = &Histogram{}
	}
	lo, hi := -1, -1
	for i := 0; i < NumBuckets; i++ {
		if h.Buckets[i] != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	var cum uint64
	for i := lo; i >= 0 && i <= hi; i++ {
		cum += h.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(s.Labels, KV("le", fmt.Sprint(BucketUpper(i)))), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelString(s.Labels, KV("le", "+Inf")), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, labelString(s.Labels), h.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(s.Labels), h.Count)
	return err
}
