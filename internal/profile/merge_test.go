package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// chargeLoad charges a deterministic slice of work to a meter.
func chargeLoad(mt *sim.Meter, scale float64) {
	mt.AddUops("zend_hash_find", sim.CatHash, 4000*scale)
	mt.AddUops("_emalloc", sim.CatHeap, 3000*scale)
	mt.AddUops("texturize", sim.CatString, 2000*scale)
	mt.AddUops("app_code", sim.CatOther, 1000*scale)
}

// TestMergeEqualsCombinedLoad: merging per-backend profiles must equal
// the profile of one meter that observed the combined load.
func TestMergeEqualsCombinedLoad(t *testing.T) {
	model := sim.DefaultCostModel()
	combined := sim.NewMeter(model)
	var parts []Profile
	for i := 0; i < 3; i++ {
		mt := sim.NewMeter(model)
		chargeLoad(mt, float64(i+1))
		chargeLoad(combined, float64(i+1))
		parts = append(parts, FromMeter(mt))
	}
	got := Merge(parts...)
	want := FromMeter(combined)

	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("entry count: got %d want %d", len(got.Entries), len(want.Entries))
	}
	if math.Abs(got.Total-want.Total) > 1e-6*want.Total {
		t.Fatalf("total: got %g want %g", got.Total, want.Total)
	}
	for i := range got.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.Name != w.Name || g.Category != w.Category {
			t.Fatalf("entry %d: got %s/%s want %s/%s", i, g.Name, g.Category, w.Name, w.Category)
		}
		if math.Abs(g.Cycles-w.Cycles) > 1e-6*w.Cycles {
			t.Fatalf("entry %d cycles: got %g want %g", i, g.Cycles, w.Cycles)
		}
		if math.Abs(g.Frac-w.Frac) > 1e-9 || math.Abs(g.Cum-w.Cum) > 1e-9 {
			t.Fatalf("entry %d frac/cum: got %g/%g want %g/%g", i, g.Frac, g.Cum, w.Frac, w.Cum)
		}
	}
	// Summation order differs between the merged and combined paths, so
	// fractions can disagree in the last ULP; compare with tolerance.
	if math.Abs(got.HottestFrac()-want.HottestFrac()) > 1e-9 {
		t.Fatalf("hottest frac: got %g want %g", got.HottestFrac(), want.HottestFrac())
	}
	if got.FuncsForFrac(0.65) != want.FuncsForFrac(0.65) {
		t.Fatalf("funcs for 65%%: got %d want %d", got.FuncsForFrac(0.65), want.FuncsForFrac(0.65))
	}
}

func TestMergeSumsDuplicates(t *testing.T) {
	p := Merge(Profile{Entries: []Entry{
		{Name: "f", Category: sim.CatHash, Cycles: 10},
		{Name: "f", Category: sim.CatHash, Cycles: 30},
		{Name: "f", Category: sim.CatHeap, Cycles: 20}, // distinct category = distinct row
		{Name: "g", Category: sim.CatOther, Cycles: 40},
	}})
	if len(p.Entries) != 3 || p.Total != 100 {
		t.Fatalf("entries=%d total=%g", len(p.Entries), p.Total)
	}
	// Tie at 40 cycles breaks by name: "f" before "g".
	if p.Entries[0].Name != "f" || p.Entries[0].Cycles != 40 || p.Entries[1].Name != "g" {
		t.Fatalf("order: %+v", p.Entries)
	}
	if got := p.Entries[len(p.Entries)-1].Cum; math.Abs(got-1) > 1e-12 {
		t.Fatalf("final cum = %g, want 1", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	p := Merge()
	if p.Total != 0 || len(p.Entries) != 0 || p.HottestFrac() != 0 {
		t.Fatalf("empty merge: %+v", p)
	}
}

func TestTopNAll(t *testing.T) {
	p := Merge(Profile{Entries: []Entry{{Name: "f", Category: sim.CatHash, Cycles: 1}}})
	if got := len(p.TopN(0)); got != 1 {
		t.Fatalf("TopN(0) = %d entries, want all (1)", got)
	}
	if got := len(p.TopN(-5)); got != 1 {
		t.Fatalf("TopN(-5) = %d entries, want all (1)", got)
	}
}

// TestDocRoundTrip: the /profilez?format=json shape carries a whole
// profile across the wire when rendered with n=0 — the fleet scraper's
// contract — a top-n doc keeps the headline numbers of the full window,
// and a category name this build does not know folds into "other"
// instead of failing the decode.
func TestDocRoundTrip(t *testing.T) {
	p := Merge(Profile{Entries: []Entry{
		{Name: "zend_hash_find", Category: sim.CatHash, Cycles: 500},
		{Name: "_emalloc", Category: sim.CatHeap, Cycles: 250},
		{Name: "memcpy", Category: sim.CatString, Cycles: 250},
	}})
	wire, err := json.Marshal(NewDoc("wordpress", "accelerated", p, WindowInfo{Epochs: 2, SinceBoot: true}, []int{1, 2}, 0))
	if err != nil {
		t.Fatal(err)
	}
	var d Doc
	if err := json.Unmarshal(wire, &d); err != nil {
		t.Fatal(err)
	}
	if got := d.Profile(); !reflect.DeepEqual(got, p) {
		t.Errorf("n=0 round trip = %+v, want %+v", got, p)
	}
	if d.App != "wordpress" || d.WindowEpochs != 2 || !d.SinceBoot || d.CDF["1"] != 0.5 || d.CDF["2"] != 0.75 || d.CategoryShare["heap"] != 0.25 {
		t.Errorf("doc header = %+v", d)
	}

	top := NewDoc("", "", p, WindowInfo{}, nil, 1)
	if len(top.Top) != 1 || top.Functions != 3 || top.TotalCycles != 1000 || top.HottestFrac != 0.5 || top.FuncsFor65 != 2 {
		t.Errorf("n=1 doc = %+v, want one row under the whole window's headline", top)
	}

	if err := json.Unmarshal([]byte(`{"top":[{"name":"f","category":"quantum","cycles":7}]}`), &d); err != nil {
		t.Fatal(err)
	}
	if got := d.Profile(); got.Total != 7 || got.Entries[0].Category != sim.CatOther {
		t.Errorf("unknown category decoded as %+v, want 7 cycles under other", got)
	}
}

// TestTotalsIndependentOfRowOrder: a profile is a pure function of its
// rows. The same ~200 rows, spanning 1…1e12 cycles, built twenty times
// through Merge (in a fresh order each time) and twenty times through
// Live.Window must give bit for bit the Total, Frac and Cum of one sum
// taken in the sorted (hottest-first) order — float addition is not
// associative, so a sum in any other order moves the last bits, and
// with them funcs_for_65 whenever a Cum sits on 0.65.
func TestTotalsIndependentOfRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mt := sim.NewMeter(sim.DefaultCostModel())
	for i := 0; i < 200; i++ {
		mt.AddUops(fmt.Sprintf("fn_%03d", i), sim.Category(i%sim.NumCategories), math.Pow(10, 12*rng.Float64()))
	}
	var rows []Entry
	for _, f := range mt.Functions() {
		rows = append(rows, Entry{Name: f.Name, Category: f.Category, Cycles: f.Cycles(&mt.Model)})
	}
	// The reference: rows hottest-first, every sum taken in that order.
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cycles > rows[j].Cycles })
	var total, cum float64
	for _, r := range rows {
		total += r.Cycles
	}
	want := make([]Entry, len(rows))
	for i, r := range rows {
		r.Frac = r.Cycles / total
		cum += r.Frac
		r.Cum = cum
		want[i] = r
	}
	check := func(how string, p Profile) {
		t.Helper()
		if p.Total != total || len(p.Entries) != len(want) {
			t.Fatalf("%s: total %v over %d rows, want %v over %d", how, p.Total, len(p.Entries), total, len(want))
		}
		for i, e := range p.Entries {
			if e != want[i] {
				t.Fatalf("%s: row %d = %+v, want %+v", how, i, e, want[i])
			}
		}
	}
	for k := 0; k < 20; k++ {
		shuffled := append([]Entry(nil), rows...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check(fmt.Sprintf("Merge #%d", k), Merge(Profile{Entries: shuffled}))

		l := NewLive(2, time.Unix(0, 0))
		l.Observe(mt, time.Unix(1, 0))
		p, _ := l.Window()
		check(fmt.Sprintf("Live.Window #%d", k), p)
	}
}
