package obs

import (
	"math"
	"strings"
	"testing"
)

// TestEncoderCounterAndGauge: the text a counter or gauge field becomes —
// header, label block, escaping, non-finite spellings — through Struct,
// the one writer of those kinds.
func TestEncoderCounterAndGauge(t *testing.T) {
	base := []Label{{Name: "app", Value: "wordpress"}, {Name: "config", Value: "accelerated"}}
	type hop struct {
		Backend string `prom:"backend,label"`
		Hops    int    `prom:"hops_total,counter" help:"Hops."`
	}
	tests := []struct {
		name    string
		write   func(e *Encoder)
		want    []string
		exactly string // when set, the full expected output
	}{
		{
			name: "bare counter",
			write: func(e *Encoder) {
				e.Struct("", nil, struct {
					N int `prom:"requests_total,counter" help:"Requests served."`
				}{42})
			},
			exactly: "# HELP requests_total Requests served.\n" +
				"# TYPE requests_total counter\n" +
				"requests_total 42\n",
		},
		{
			name: "labeled gauge",
			write: func(e *Encoder) {
				e.Struct("", base, struct {
					N int `prom:"workers,gauge,base" help:"Pool size."`
				}{4})
			},
			want: []string{`workers{app="wordpress",config="accelerated"} 4`, "# TYPE workers gauge"},
		},
		{
			name: "multi-series family has one header",
			write: func(e *Encoder) {
				e.Struct("", nil, struct {
					V Vec `prom:"cycles_total,counter,by=category" help:"Cycles."`
				}{Vec{{"hash", 1}, {"heap", 2}}})
			},
			exactly: "# HELP cycles_total Cycles.\n" +
				"# TYPE cycles_total counter\n" +
				"cycles_total{category=\"hash\"} 1\n" +
				"cycles_total{category=\"heap\"} 2\n",
		},
		{
			name: "one call per series still has one header",
			write: func(e *Encoder) {
				e.Struct("", nil, hop{"0", 1})
				e.Struct("", nil, hop{"1", 2})
				e.Struct("", nil, struct {
					Up bool `prom:"up,gauge" help:"Up."`
				}{true})
			},
			exactly: "# HELP hops_total Hops.\n" +
				"# TYPE hops_total counter\n" +
				"hops_total{backend=\"0\"} 1\n" +
				"hops_total{backend=\"1\"} 2\n" +
				"# HELP up Up.\n" +
				"# TYPE up gauge\n" +
				"up 1\n",
		},
		{
			name: "help escaping",
			write: func(e *Encoder) {
				e.Struct("", nil, struct {
					X int `prom:"x_total,counter" help:"line one\nback\\slash"`
				}{})
			},
			want: []string{`# HELP x_total line one\nback\\slash`},
		},
		{
			name: "label value escaping",
			write: func(e *Encoder) {
				e.Struct("", nil, struct {
					Path string `prom:"path,label"`
					X    int    `prom:"x_total,counter" help:"h"`
				}{`a"b\c` + "\nd", 1})
			},
			want: []string{`x_total{path="a\"b\\c\nd"} 1`},
		},
		{
			name: "non-finite values spelled out",
			write: func(e *Encoder) {
				e.Struct("", nil, struct {
					G Vec `prom:"g,gauge,by=k" help:"h"`
				}{Vec{{"inf", math.Inf(1)}, {"ninf", math.Inf(-1)}, {"nan", math.NaN()}}})
			},
			want: []string{`g{k="inf"} +Inf`, `g{k="ninf"} -Inf`, `g{k="nan"} NaN`},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			e := NewEncoder(&b)
			tt.write(e)
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			got := b.String()
			if tt.exactly != "" && got != tt.exactly {
				t.Errorf("got:\n%s\nwant:\n%s", got, tt.exactly)
			}
			for _, w := range tt.want {
				if !strings.Contains(got, w) {
					t.Errorf("output missing %q:\n%s", w, got)
				}
			}
		})
	}
}

func TestEncoderHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.05, 0.3, 0.9, 7} {
		h.Observe(v)
	}
	var b strings.Builder
	e := NewEncoder(&b)
	e.Histogram("lat_seconds", "Latency.", nil, h.Snapshot())
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP lat_seconds Latency.\n" +
		"# TYPE lat_seconds histogram\n" +
		"lat_seconds_bucket{le=\"0.1\"} 2\n" +
		"lat_seconds_bucket{le=\"0.5\"} 3\n" +
		"lat_seconds_bucket{le=\"1\"} 4\n" +
		"lat_seconds_bucket{le=\"+Inf\"} 5\n" +
		"lat_seconds_sum 8.3\n" +
		"lat_seconds_count 5\n"
	if got := b.String(); got != want {
		t.Errorf("histogram exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestEncoderHistogramCumulative(t *testing.T) {
	// Bucket counts in the exposition must be non-decreasing even though
	// the histogram stores per-bucket counts internally.
	h := NewHistogram(DefLatencyBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%17) / 100)
	}
	s := h.Snapshot()
	var last uint64
	for i, c := range s.Counts {
		if c < last {
			t.Fatalf("bucket %d count %d < previous %d", i, c, last)
		}
		last = c
	}
	if s.Count < last {
		t.Fatalf("+Inf count %d < last bucket %d", s.Count, last)
	}
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
}

func TestEncoderZeroSampleSeries(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Histogram("empty_seconds", "Never observed.", nil, NewHistogram([]float64{1, 2}).Snapshot())
	e.Struct("", nil, struct {
		Zero int `prom:"zero_total,counter" help:"Zero."`
	}{})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, w := range []string{
		`empty_seconds_bucket{le="1"} 0`,
		`empty_seconds_bucket{le="2"} 0`,
		`empty_seconds_bucket{le="+Inf"} 0`,
		"empty_seconds_sum 0",
		"empty_seconds_count 0",
		"zero_total 0",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("zero-sample output missing %q:\n%s", w, got)
		}
	}
}

func TestEncoderSummary(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Summary("lat", "Quantiles.", nil,
		[]Quantile{{Q: 0.5, Value: 0.01}, {Q: 0.99, Value: 0.2}}, 1.5, 30)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, w := range []string{
		"# TYPE lat summary",
		`lat{quantile="0.5"} 0.01`,
		`lat{quantile="0.99"} 0.2`,
		"lat_sum 1.5",
		"lat_count 30",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("summary missing %q:\n%s", w, got)
		}
	}
}
