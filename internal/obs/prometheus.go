package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4): `# TYPE` headers, label values quoted and escaped,
// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count`. The internal metric identity `name{k=v,k2=v2}` produced by L()
// is parsed back into base name + label pairs here, at the exposition
// boundary, so hot-path metric updates never pay for quoting.

// promSeries is one parsed metric identity: base name plus ordered labels.
type promSeries struct {
	name   string
	labels [][2]string
}

// parseSeries splits `base{k=v,k2=v2}` into its base name and label pairs.
func parseSeries(id string) promSeries {
	i := strings.IndexByte(id, '{')
	if i < 0 {
		return promSeries{name: id}
	}
	s := promSeries{name: id[:i]}
	body := strings.TrimSuffix(id[i+1:], "}")
	for _, pair := range strings.Split(body, ",") {
		if k, v, ok := strings.Cut(pair, "="); ok {
			s.labels = append(s.labels, [2]string{k, v})
		}
	}
	return s
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// render writes the series with optional extra labels (e.g. le) appended.
func (s promSeries) render(suffix string, extra ...[2]string) string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteString(suffix)
	labels := append(append([][2]string{}, s.labels...), extra...)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(kv[0])
			b.WriteString(`="`)
			b.WriteString(promEscape(kv[1]))
			b.WriteString(`"`)
		}
		b.WriteByte('}')
	}
	return b.String()
}

// promEntry is one series' exposition lines; key orders series within a
// family (the original labeled identity sorts deterministically).
type promEntry struct {
	key   string
	lines []string
}

// promFamily is every series sharing one base name and type.
type promFamily struct {
	name    string
	typ     string
	entries []promEntry
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format. Families are sorted by name, series within a family by label set,
// and histogram buckets stay in ascending-bound order — output is stable
// across scrapes (modulo values), the property the golden test pins down.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	fams := make(map[string]*promFamily)
	add := func(name, typ, key string, lines ...string) {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		f.entries = append(f.entries, promEntry{key: key, lines: lines})
	}
	for id, v := range snap.Counters {
		s := parseSeries(id)
		add(s.name, "counter", id, fmt.Sprintf("%s %d", s.render(""), v))
	}
	for id, v := range snap.Gauges {
		s := parseSeries(id)
		add(s.name, "gauge", id, fmt.Sprintf("%s %d", s.render(""), v))
	}
	for id, h := range snap.Histograms {
		s := parseSeries(id)
		lines := make([]string, 0, len(h.Buckets)+2)
		for _, bc := range h.Buckets {
			lines = append(lines, fmt.Sprintf("%s %d", s.render("_bucket", [2]string{"le", bc.Le}), bc.Count))
		}
		lines = append(lines,
			fmt.Sprintf("%s %s", s.render("_sum"), formatFloat(h.Sum)),
			fmt.Sprintf("%s %d", s.render("_count"), h.Count))
		add(s.name, "histogram", id, lines...)
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.entries, func(i, j int) bool { return f.entries[i].key < f.entries[j].key })
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, e := range f.entries {
			for _, line := range e.lines {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
