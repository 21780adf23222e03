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

// TestMergeEqualsCombinedLoad is the merge-correctness gate: parsing N
// per-backend expositions and merging them must yield exactly the
// exposition of one backend that saw the combined load.
func TestMergeEqualsCombinedLoad(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	loads := [][]float64{
		{0.0005, 0.002, 0.05, 0.5},
		{0.003, 0.004, 2.5}, // 2.5 lands in +Inf
		{0.0001, 0.9},
	}

	var merged []*MetricFamily
	combined := NewHistogram(bounds)
	var totalReqs, totalWorkers float64
	for i, load := range loads {
		h := NewHistogram(bounds)
		for _, v := range load {
			h.Observe(v)
			combined.Observe(v)
		}
		reqs := float64(len(load))
		totalReqs += reqs
		totalWorkers += 4
		text := encodeSnapshot(t, reqs, 4, h)
		fams, err := ParsePromText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("parse backend %d: %v", i, err)
		}
		merged = MergeFamilies(merged, fams)
	}

	wantFams, err := ParsePromText(strings.NewReader(encodeSnapshot(t, totalReqs, totalWorkers, combined)))
	if err != nil {
		t.Fatalf("parse combined: %v", err)
	}
	if !reflect.DeepEqual(merged, wantFams) {
		t.Fatalf("merged families differ from the combined-load exposition's:\n--- merged:\n%+v\n--- combined:\n%+v", merged, wantFams)
	}

	// The reconstructed histogram must also match the combined snapshot.
	f := FindFamily(merged, "phpserve_request_latency_seconds")
	if f == nil {
		t.Fatal("histogram family missing after merge")
	}
	got, want := f.Histogram(), combined.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Fatalf("histogram count/sum: got %d/%g want %d/%g", got.Count, got.Sum, want.Count, want.Sum)
	}
	if len(got.Bounds) != len(want.Bounds) {
		t.Fatalf("bounds: got %v want %v", got.Bounds, want.Bounds)
	}
	for i := range got.Bounds {
		if got.Bounds[i] != want.Bounds[i] || got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: got (%g,%d) want (%g,%d)",
				i, got.Bounds[i], got.Counts[i], want.Bounds[i], want.Counts[i])
		}
	}
	if got := FindFamily(merged, "phpserve_requests_total").Sum(); got != totalReqs {
		t.Fatalf("requests sum: got %g want %g", got, totalReqs)
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

func TestMergeDisjointFamilies(t *testing.T) {
	a, err := ParsePromText(strings.NewReader("# TYPE a counter\na 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParsePromText(strings.NewReader("# TYPE b counter\nb 2\na 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeFamilies(nil, a)
	merged = MergeFamilies(merged, b)
	if got := FindFamily(merged, "a").Sum(); got != 6 {
		t.Fatalf("a: got %g want 6", got)
	}
	if got := FindFamily(merged, "b").Sum(); got != 2 {
		t.Fatalf("b: got %g want 2", got)
	}
}
