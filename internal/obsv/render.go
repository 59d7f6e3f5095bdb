package obsv

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
)

// escapeLabelValue applies Prometheus text-exposition escaping to a
// label value: backslash, double quote, and newline. (fmt's %q is Go
// string quoting, which also escapes non-ASCII and control bytes in
// ways the exposition format does not define — hence this exists.)
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line: backslash and newline only (quotes
// are legal there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelSignature renders sorted labels as `k1="v1",k2="v2"` — the
// series identity and the exact text inside the exposition braces.
func labelSignature(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// formatValue renders a sample value. Integral floats render without an
// exponent or trailing zeros ("2", not "2e+00"), infinities as
// "+Inf"/"-Inf", matching common Prometheus client output.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w io.Writer, name, sig, suffix, extraLabel, value string) error {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(suffix)
	if sig != "" || extraLabel != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		if sig != "" && extraLabel != "" {
			b.WriteByte(',')
		}
		b.WriteString(extraLabel)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus renders the registry in Prometheus text exposition
// format 0.0.4: families sorted by name, each with one HELP and one
// TYPE line followed by its series sorted by label signature.
// Histograms emit cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.snapshotFamilies() {
		if _, err := io.WriteString(w, "# HELP "+f.name+" "+escapeHelp(f.help)+"\n"); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "# TYPE "+f.name+" "+f.kind.String()+"\n"); err != nil {
			return err
		}
		for _, s := range f.sorted {
			var err error
			switch f.kind {
			case KindCounter:
				err = writeSample(w, f.name, s.sig, "", "", strconv.FormatInt(s.c.Value(), 10))
			case KindGauge:
				err = writeSample(w, f.name, s.sig, "", "", formatValue(s.g.Value()))
			case KindHistogram:
				var cum int64
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					le := `le="` + formatValue(bound) + `"`
					if err = writeSample(w, f.name, s.sig, "_bucket", le, strconv.FormatInt(cum, 10)); err != nil {
						break
					}
				}
				if err == nil {
					cum += s.h.counts[len(s.h.bounds)].Load()
					err = writeSample(w, f.name, s.sig, "_bucket", `le="+Inf"`, strconv.FormatInt(cum, 10))
				}
				if err == nil {
					err = writeSample(w, f.name, s.sig, "_sum", "", formatValue(s.h.Sum()))
				}
				if err == nil {
					err = writeSample(w, f.name, s.sig, "_count", "", strconv.FormatInt(s.h.Count(), 10))
				}
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot is the JSON form of a registry at one point in time.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one family: name, help, kind, series.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled series. Counters and gauges set Value;
// histograms set Count, Sum and cumulative Buckets.
type SeriesSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *int64            `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket. LE is rendered as
// a string because JSON has no +Inf.
type BucketSnapshot struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// Snapshot captures every family and series as plain values. Individual
// reads are atomic; the snapshot as a whole is not a global atomic cut,
// but each counter read is monotone with respect to concurrent writers.
// A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	for _, f := range r.snapshotFamilies() {
		m := MetricSnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range f.sorted {
			var ss SeriesSnapshot
			if len(s.labels) > 0 {
				ss.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					ss.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				v := float64(s.c.Value())
				ss.Value = &v
			case KindGauge:
				v := s.g.Value()
				ss.Value = &v
			case KindHistogram:
				count, sum := s.h.Count(), s.h.Sum()
				ss.Count, ss.Sum = &count, &sum
				var cum int64
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					ss.Buckets = append(ss.Buckets, BucketSnapshot{LE: formatValue(bound), Count: cum})
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				ss.Buckets = append(ss.Buckets, BucketSnapshot{LE: "+Inf", Count: cum})
			}
			m.Series = append(m.Series, ss)
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON, for `-metrics-out`
// files and the daemon's JSON endpoint.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
