package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// structRow is a row type: its label field names every series of a row.
type structRow struct {
	ID   string            `prom:"backend,label"`
	Addr string            // untagged: never a series
	Up   bool              `prom:"backend_up,gauge" help:"Row gauge."`
	Hits int64             `prom:"backend_hits_total,counter" help:"Row counter."`
	Lat  HistogramSnapshot `prom:"backend_latency_seconds,histogram" help:"Row histogram."`
}

type structInner struct {
	Depth uint8 `prom:"depth,gauge" help:"Nested."`
}

type structEmbedded struct {
	Embedded float32 `prom:"embedded,gauge" help:"Embedded."`
}

// TestEncoderStruct: one case per field kind and tag option Struct
// supports, each checked against the exact exposition text.
func TestEncoderStruct(t *testing.T) {
	base := []Label{{"app", "wp"}}
	hist := NewHistogram([]float64{1})
	hist.Observe(0.5)
	five := int64(5)
	tests := []struct {
		name string
		v    any
		want string
	}{
		{"int, float, bool and the base option", struct {
			N    int     `prom:"n_total,counter,base" help:"N."`
			F    float64 `prom:"f,gauge" help:"F."`
			On   bool    `prom:"on,gauge" help:"On."`
			Off  bool    `prom:"off,gauge" help:"Off."`
			Skip int     // no tag
			JSON int     `json:"only"` // no prom tag
			priv int     `prom:"priv,gauge"`
		}{N: 3, F: 0.25, On: true, priv: 1},
			"# HELP p_n_total N.\n# TYPE p_n_total counter\np_n_total{app=\"wp\"} 3\n" +
				"# HELP p_f F.\n# TYPE p_f gauge\np_f 0.25\n" +
				"# HELP p_on On.\n# TYPE p_on gauge\np_on 1\n" +
				"# HELP p_off Off.\n# TYPE p_off gauge\np_off 0\n"},
		{"consecutive fields of one family share a header; fixed labels follow base", struct {
			A int64 `prom:"shed_total,counter,base,reason=overload" help:"Sheds."`
			B int64 `prom:"shed_total,counter,base,reason=timeout"`
		}{1, 2},
			"# HELP p_shed_total Sheds.\n# TYPE p_shed_total counter\n" +
				"p_shed_total{app=\"wp\",reason=\"overload\"} 1\n" +
				"p_shed_total{app=\"wp\",reason=\"timeout\"} 2\n"},
		{"vector: one series per entry under by=; nil is absent, empty is a bare header", struct {
			Cycles Vec `prom:"cycles_total,counter,by=category" help:"Cycles."`
			Absent Vec `prom:"absent_total,counter,by=kind" help:"Absent."`
			Empty  Vec `prom:"empty_total,counter,by=kind" help:"Empty."`
		}{Cycles: Vec{{"hash", 1}, {"heap", 2}}, Empty: Vec{}},
			"# HELP p_cycles_total Cycles.\n# TYPE p_cycles_total counter\n" +
				"p_cycles_total{category=\"hash\"} 1\np_cycles_total{category=\"heap\"} 2\n" +
				"# HELP p_empty_total Empty.\n# TYPE p_empty_total counter\n"},
		{"histogram", struct {
			Lat HistogramSnapshot `prom:"lat_seconds,histogram" help:"Lat."`
		}{hist.Snapshot()},
			"# HELP p_lat_seconds Lat.\n# TYPE p_lat_seconds histogram\n" +
				"p_lat_seconds_bucket{le=\"1\"} 1\np_lat_seconds_bucket{le=\"+Inf\"} 1\n" +
				"p_lat_seconds_sum 0.5\np_lat_seconds_count 1\n"},
		{"pointers: nil is absent, set is dereferenced; structs nest and embed", &struct {
			Set   *int64 `prom:"set_total,counter" help:"Set."`
			Unset *int64 `prom:"unset_total,counter" help:"Unset."`
			structEmbedded
			Inner   structInner
			Present *structInner
			Missing *structInner
			Times   []float64 // a slice of non-structs is not descended into
		}{Set: &five, structEmbedded: structEmbedded{1.5}, Inner: structInner{2}, Present: &structInner{3}},
			"# HELP p_set_total Set.\n# TYPE p_set_total counter\np_set_total 5\n" +
				"# HELP p_embedded Embedded.\n# TYPE p_embedded gauge\np_embedded 1.5\n" +
				"# HELP p_depth Nested.\n# TYPE p_depth gauge\np_depth 2\np_depth 3\n"},
		{"row slice: family-major, one series per row under the row label", struct {
			Total int         `prom:"rows,gauge" help:"Rows."`
			Rows  []structRow `json:"rows"`
		}{2, []structRow{{ID: "0", Up: true, Hits: 7, Lat: hist.Snapshot()}, {ID: "1", Hits: 9, Lat: hist.Snapshot()}}},
			"# HELP p_rows Rows.\n# TYPE p_rows gauge\np_rows 2\n" +
				"# HELP p_backend_up Row gauge.\n# TYPE p_backend_up gauge\n" +
				"p_backend_up{backend=\"0\"} 1\np_backend_up{backend=\"1\"} 0\n" +
				"# HELP p_backend_hits_total Row counter.\n# TYPE p_backend_hits_total counter\n" +
				"p_backend_hits_total{backend=\"0\"} 7\np_backend_hits_total{backend=\"1\"} 9\n" +
				"# HELP p_backend_latency_seconds Row histogram.\n# TYPE p_backend_latency_seconds histogram\n" +
				"p_backend_latency_seconds_bucket{backend=\"0\",le=\"1\"} 1\np_backend_latency_seconds_bucket{backend=\"0\",le=\"+Inf\"} 1\n" +
				"p_backend_latency_seconds_sum{backend=\"0\"} 0.5\np_backend_latency_seconds_count{backend=\"0\"} 1\n" +
				"p_backend_latency_seconds_bucket{backend=\"1\",le=\"1\"} 1\np_backend_latency_seconds_bucket{backend=\"1\",le=\"+Inf\"} 1\n" +
				"p_backend_latency_seconds_sum{backend=\"1\"} 0.5\np_backend_latency_seconds_count{backend=\"1\"} 1\n"},
		{"a struct's label field joins base on every series of the struct", struct {
			Mode string `prom:"tier,label"`
			N    int    `prom:"calls_total,counter,base" help:"Calls."`
		}{"auto", 4},
			"# HELP p_calls_total Calls.\n# TYPE p_calls_total counter\np_calls_total{app=\"wp\",tier=\"auto\"} 4\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			e := NewEncoder(&sb)
			e.Struct("p_", base, tc.v)
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != tc.want {
				t.Errorf("exposition:\n%s\nwant:\n%s", got, tc.want)
			}
			if _, err := ParsePromText(strings.NewReader(sb.String())); err != nil {
				t.Errorf("output does not parse: %v", err)
			}
		})
	}
}

// TestVecMarshalJSON: an object in entry order (a map would sort), with
// non-finite values clamped so the document stays valid JSON.
func TestVecMarshalJSON(t *testing.T) {
	got, err := json.Marshal(struct {
		V    Vec `json:"v"`
		None Vec `json:"none,omitempty"`
	}{V: Vec{{"other", 1.5}, {"hash", math.NaN()}, {`a"b`, math.Inf(1)}, {"big", 1e21}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"v":{"other":1.5,"hash":0,"a\"b":0,"big":1e+21}}`; string(got) != want {
		t.Errorf("marshal = %s, want %s", got, want)
	}
	var back struct {
		V map[string]float64 `json:"v"`
	}
	if err := json.Unmarshal(got, &back); err != nil || back.V["other"] != 1.5 || len(back.V) != 4 {
		t.Errorf("a map reader sees %v (%v), want the same four entries", back.V, err)
	}
}
