package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CheckName validates a metric or label name against the Prometheus data
// model: [a-zA-Z_:][a-zA-Z0-9_:]* (colons reserved for rules, but accepted).
func CheckName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric or label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("obs: metric name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("obs: metric name %q has invalid byte %q at %d", name, c, i)
		}
	}
	return nil
}

// SanitizeName maps an arbitrary string onto a valid metric/label name:
// every invalid byte becomes '_', a leading digit gains a '_' prefix, and
// the empty string becomes "_". SanitizeName(SanitizeName(s)) ==
// SanitizeName(s) — the fuzz target holds it to that.
func SanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the text exposition format:
// backslash, double quote and newline become \\, \" and \n. Any other byte
// (including arbitrary UTF-8) passes through untouched.
func escapeLabelValue(v string) string {
	// Fast path: nothing to escape.
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// unescapeLabelValue inverts escapeLabelValue; the fuzz target asserts the
// round trip. A trailing lone backslash or unknown escape is returned
// verbatim (the encoder never emits one).
func unescapeLabelValue(v string) string {
	if !strings.Contains(v, `\`) {
		return v
	}
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c != '\\' || i == len(v)-1 {
			b.WriteByte(c)
			continue
		}
		i++
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			b.WriteByte('\\')
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes are
// legal in help text).
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	var b strings.Builder
	b.Grow(len(h) + 8)
	for i := 0; i < len(h); i++ {
		switch c := h[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// renderLabels renders `k="v",k2="v2"` with escaped values. Label order is
// the family's declaration order, so equal value vectors always render
// identically — the series key and the exposition both rely on that.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// formatFloat renders a float the way the exposition format expects:
// shortest round-trippable decimal, +Inf spelled "+Inf".
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4). The output is byte-stable for a fixed registry state:
// families sort by name, series by their rendered label string, and
// histogram buckets follow the registered bound order.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.ordered {
			switch f.typ {
			case typeCounter:
				writeSample(bw, f.name, "", s.labels, "", strconv.FormatUint(s.c.Value(), 10))
			case typeGauge:
				writeSample(bw, f.name, "", s.labels, "", strconv.FormatInt(s.g.Value(), 10))
			case typeHistogram:
				writeHistogram(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name[suffix]{labels[,extra]} value` line.
func writeSample(w *bufio.Writer, name, suffix, labels, extra, value string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if labels != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if labels != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// writeHistogram emits the cumulative bucket lines plus _sum and _count.
func writeHistogram(w *bufio.Writer, name string, s *series) {
	counts, inf := s.h.BucketCounts()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := `le="` + formatFloat(s.h.bounds[i]) + `"`
		writeSample(w, name, "_bucket", s.labels, le, strconv.FormatUint(cum, 10))
	}
	cum += inf
	writeSample(w, name, "_bucket", s.labels, `le="+Inf"`, strconv.FormatUint(cum, 10))
	writeSample(w, name, "_sum", s.labels, "", formatFloat(s.h.Sum()))
	// _count mirrors the +Inf bucket so a scrape racing concurrent
	// observes still renders a self-consistent histogram.
	writeSample(w, name, "_count", s.labels, "", strconv.FormatUint(cum, 10))
}
