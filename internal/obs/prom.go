package obs

import (
	"io"
	"math"
	"strconv"
	"strings"
)

// Label is one name="value" pair on a metric sample. Labels are emitted
// in the order given, so callers control (and tests can assert) the
// exact exposition text.
type Label struct {
	Name  string
	Value string
}

// Encoder writes metric families in the Prometheus text exposition
// format (version 0.0.4): a # HELP and # TYPE header per family followed
// by one line per series. Struct writes every family from tagged
// fields, counters and gauges directly and histograms through
// Histogram. The format allows one TYPE line per family, so consecutive
// writes of the same family name (one Histogram call per labelled
// series, say) share the first one's header. Errors are sticky; check Err once at the end.
//
// The encoder is deliberately snapshot-oriented: the serving layer keeps
// plain counters and histograms on the hot path and renders them here
// only at scrape time, so exposition cost is never paid per request.
// Lines are assembled with strconv.Append* into a buffer the encoder
// reuses across series, so a scrape's exposition cost is bounded by the
// write path, not by per-line string assembly. An Encoder is
// single-goroutine, like the scrape handler that owns it.
type Encoder struct {
	w    io.Writer
	buf  []byte  // per-line assembly buffer, reused
	lbl  []Label // scratch for derived label sets (le=, quantile=)
	last string  // family whose header was written last
	err  error
}

// NewEncoder builds an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Err returns the first write error, if any.
func (e *Encoder) Err() error { return e.err }

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// appendEscapedLabel appends a label value escaping backslash, double
// quote, and newline per the exposition format.
func appendEscapedLabel(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' && c != '"' && c != '\n' {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		}
		start = i + 1
	}
	return append(b, s[start:]...)
}

// Finite clamps NaN and ±Inf to 0, for ratios over a zero-request or
// empty-fleet snapshot: encoding/json rejects non-finite floats outright
// (a cold /stats scrape would be a 200 with a half-written body), and a
// gauge is more use at 0 than at NaN.
func Finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// appendValue appends a sample value ("+Inf"/"-Inf"/"NaN" spelled the
// way the exposition format requires).
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// formatValue renders a sample value as a string (the parse-side tests
// and merge keys still want the string form).
func formatValue(v float64) string {
	return string(appendValue(nil, v))
}

// appendLabelBlock appends {a="b",c="d"}, or nothing for no labels.
func appendLabelBlock(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, '=', '"')
		b = appendEscapedLabel(b, l.Value)
		b = append(b, '"')
	}
	return append(b, '}')
}

func (e *Encoder) write(b []byte) {
	e.buf = b
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *Encoder) header(name, help, typ string) {
	if name == e.last {
		return
	}
	e.last = name
	b := e.buf[:0]
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, escapeHelp(help)...)
	b = append(b, '\n')
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	e.write(b)
}

func (e *Encoder) series(name string, labels []Label, v float64) {
	b := e.buf[:0]
	b = append(b, name...)
	b = appendLabelBlock(b, labels)
	b = append(b, ' ')
	b = appendValue(b, v)
	b = append(b, '\n')
	e.write(b)
}

// derived builds labels + one extra pair in the encoder's scratch label
// slice (valid until the next derived call — series consumes it
// synchronously).
func (e *Encoder) derived(labels []Label, name, value string) []Label {
	e.lbl = append(e.lbl[:0], labels...)
	e.lbl = append(e.lbl, Label{name, value})
	return e.lbl
}

// Histogram writes one histogram family from a cumulative snapshot:
// name_bucket{le="..."} lines (cumulative counts, +Inf last), then
// name_sum and name_count. labels are prepended to every bucket's le
// label. A zero-sample snapshot is valid and exports all-zero series.
func (e *Encoder) Histogram(name, help string, labels []Label, s HistogramSnapshot) {
	e.header(name, help, "histogram")
	for i, b := range s.Bounds {
		e.series(name+"_bucket", e.derived(labels, "le", formatValue(b)), float64(s.Counts[i]))
	}
	e.series(name+"_bucket", e.derived(labels, "le", "+Inf"), float64(s.Count))
	e.series(name+"_sum", labels, s.Sum)
	e.series(name+"_count", labels, float64(s.Count))
}
