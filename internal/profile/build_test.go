package profile

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestMergeSumsDuplicates: build merges the rows of one (function,
// category) into one whose cycles are their sum — what Live.Window's
// newest-plus-negated-oldest rows rely on — and keeps rows of another
// category apart.
func TestMergeSumsDuplicates(t *testing.T) {
	p := build([]Entry{
		{Name: "f", Category: sim.CatHash, Cycles: 10},
		{Name: "f", Category: sim.CatHash, Cycles: 30},
		{Name: "f", Category: sim.CatHeap, Cycles: 20}, // distinct category = distinct row
		{Name: "g", Category: sim.CatOther, Cycles: 40},
	})
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

func TestTopNAll(t *testing.T) {
	p := build([]Entry{{Name: "f", Category: sim.CatHash, Cycles: 1}})
	if got := len(p.TopN(0)); got != 1 {
		t.Fatalf("TopN(0) = %d entries, want all (1)", got)
	}
	if got := len(p.TopN(-5)); got != 1 {
		t.Fatalf("TopN(-5) = %d entries, want all (1)", got)
	}
}

// TestNewDocHeadline: the /profilez?format=json document carries the
// header of the whole window — CDF points, category shares — and a top-n
// document keeps the whole window's headline numbers over its n rows.
func TestNewDocHeadline(t *testing.T) {
	p := build([]Entry{
		{Name: "zend_hash_find", Category: sim.CatHash, Cycles: 500},
		{Name: "_emalloc", Category: sim.CatHeap, Cycles: 250},
		{Name: "memcpy", Category: sim.CatString, Cycles: 250},
	})
	d := NewDoc("wordpress", "accelerated", p, WindowInfo{Epochs: 2, SinceBoot: true}, []int{1, 2}, 0)
	if len(d.Top) != 3 || d.App != "wordpress" || d.WindowEpochs != 2 || !d.SinceBoot || d.CDF["1"] != 0.5 || d.CDF["2"] != 0.75 || d.CategoryShare["heap"] != 0.25 {
		t.Errorf("n=0 doc = %+v, want every row under the window header", d)
	}
	top := NewDoc("", "", p, WindowInfo{}, nil, 1)
	if len(top.Top) != 1 || top.Functions != 3 || top.TotalCycles != 1000 || top.HottestFrac != 0.5 || top.FuncsFor65 != 2 {
		t.Errorf("n=1 doc = %+v, want one row under the whole window's headline", top)
	}
}

// TestTotalsIndependentOfRowOrder: a profile is a pure function of its
// rows. The same ~200 rows, spanning 1…1e12 cycles, built twenty times
// through build (in a fresh order each time) and twenty times through
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
		check(fmt.Sprintf("build #%d", k), build(shuffled))

		l := NewLive(2, time.Unix(0, 0))
		l.Observe(mt, time.Unix(1, 0))
		p, _ := l.Window()
		check(fmt.Sprintf("Live.Window #%d", k), p)
	}
}
