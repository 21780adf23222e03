package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// backendSnapshot is the tagged shape encodeSnapshot renders.
type backendSnapshot struct {
	Requests float64           `prom:"requests_total,counter,base" help:"Requests served."`
	Workers  float64           `prom:"workers,gauge" help:"Configured workers."`
	Latency  HistogramSnapshot `prom:"request_latency_seconds,histogram" help:"Render latency."`
}

// encodeSnapshot renders a small exposition the way a backend's /metrics
// does: a counter with labels, an unlabelled gauge, and a histogram.
func encodeSnapshot(t *testing.T, requests float64, workers float64, h *Histogram) string {
	t.Helper()
	var b strings.Builder
	e := NewEncoder(&b)
	e.Struct("phpserve_", []Label{{"app", "wordpress"}}, backendSnapshot{requests, workers, h.Snapshot()})
	if err := e.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b.String()
}

// TestParsedHistogramEqualsSnapshot: a histogram written by the Encoder
// and parsed back reconstructs the snapshot it was written from, bucket
// for bucket, and a counter's Sum reads its value.
func TestParsedHistogramEqualsSnapshot(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.002, 0.05, 0.5, 2.5} { // 2.5 lands in +Inf
		h.Observe(v)
	}
	fams, err := ParsePromText(strings.NewReader(encodeSnapshot(t, 5, 4, h)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got, want := FindFamily(fams, "phpserve_request_latency_seconds").Histogram(), h.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed histogram = %+v, want the snapshot %+v", got, want)
	}
	if got := FindFamily(fams, "phpserve_requests_total").Sum(); got != 5 {
		t.Fatalf("requests sum: got %g want 5", got)
	}
}

func TestParsePromTextDetails(t *testing.T) {
	text := "# HELP m A metric with a \\\\ slash.\n" +
		"# TYPE m counter\n" +
		"m{path=\"/a\\\"b\",ua=\"line\\nbreak\"} 3\n" +
		"m{path=\"/plain\"} 2.5\n" +
		"# TYPE s summary\n" +
		"s{quantile=\"0.5\"} 0.1\n" +
		"s_sum 7\n" +
		"s_count 10\n" +
		"stray_series 1\n"
	fams, err := ParsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m := FindFamily(fams, "m")
	if m == nil || m.Type != "counter" || len(m.Samples) != 2 {
		t.Fatalf("family m: %+v", m)
	}
	if got := m.Samples[0].Labels[0].Value; got != `/a"b` {
		t.Fatalf("escaped quote: got %q", got)
	}
	if got := m.Samples[0].Labels[1].Value; got != "line\nbreak" {
		t.Fatalf("escaped newline: got %q", got)
	}
	if got := m.Sum(Label{"path", "/plain"}); got != 2.5 {
		t.Fatalf("matched sum: got %g", got)
	}
	s := FindFamily(fams, "s")
	if s == nil || s.Type != "summary" {
		t.Fatalf("family s: %+v", s)
	}
	// Summary quantile lines are excluded from Sum; _sum/_count are
	// suffixed series and excluded too.
	if got := s.Sum(); got != 0 {
		t.Fatalf("summary Sum: got %g want 0", got)
	}
	stray := FindFamily(fams, "stray_series")
	if stray == nil || stray.Type != "untyped" || stray.Sum() != 1 {
		t.Fatalf("stray family: %+v", stray)
	}
}

func TestParsePromTextNonFinite(t *testing.T) {
	fams, err := ParsePromText(strings.NewReader("# TYPE g gauge\ng{k=\"inf\"} +Inf\ng{k=\"nan\"} NaN\n"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := FindFamily(fams, "g")
	if !math.IsInf(g.Samples[0].Value, 1) || !math.IsNaN(g.Samples[1].Value) {
		t.Fatalf("non-finite values: %+v", g.Samples)
	}
}

func TestParsePromTextErrors(t *testing.T) {
	for _, bad := range []string{
		"m{unterminated=\"x\n",
		"m{noquote=x} 1\n",
		"m notanumber\n",
	} {
		if _, err := ParsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}
