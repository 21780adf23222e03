package profile

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestMergeSumsDuplicates: the rows of one (function, category) charged
// on two worker meters merge into one row whose cycles are their sum,
// while the same function in another category stays a row of its own;
// rows tied on cycles order by name.
func TestMergeSumsDuplicates(t *testing.T) {
	a, b := sim.NewMeter(sim.CostModel{}), sim.NewMeter(sim.CostModel{}) // IPC 0: one cycle per uop
	a.AddUops("f", sim.CatHash, 10)
	b.AddUops("f", sim.CatHash, 30)
	b.AddUops("f", sim.CatHeap, 20) // distinct category = distinct row
	a.AddUops("g", sim.CatOther, 40)
	mt := sim.NewMeter(sim.CostModel{})
	mt.Merge(a)
	mt.Merge(b)
	p := FromMeter(mt)
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
	p := FromMeter(meterWith(map[string]float64{"f": 1}))
	if got := len(p.TopN(0)); got != 1 {
		t.Fatalf("TopN(0) = %d entries, want all (1)", got)
	}
	if got := len(p.TopN(-5)); got != 1 {
		t.Fatalf("TopN(-5) = %d entries, want all (1)", got)
	}
}

// TestNewDocHeadline: the /profilez?format=json document carries the
// header of the whole profile — CDF points, category shares — and a
// top-n document keeps the whole profile's headline numbers over its n
// rows.
func TestNewDocHeadline(t *testing.T) {
	mt := sim.NewMeter(sim.CostModel{}) // IPC 0: one cycle per uop, so the shares are exact
	mt.AddUops("zend_hash_find", sim.CatHash, 500)
	mt.AddUops("_emalloc", sim.CatHeap, 250)
	mt.AddUops("memcpy", sim.CatString, 250)
	p := FromMeter(mt)
	d := NewDoc("wordpress", "accelerated", p, []int{1, 2}, 0)
	if len(d.Top) != 3 || d.App != "wordpress" || d.CDF["1"] != 0.5 || d.CDF["2"] != 0.75 || d.CategoryShare["heap"] != 0.25 {
		t.Errorf("n=0 doc = %+v, want every row under the profile header", d)
	}
	top := NewDoc("", "", p, nil, 1)
	if len(top.Top) != 1 || top.Functions != 3 || top.TotalCycles != 1000 || top.HottestFrac != 0.5 || top.FuncsFor65 != 2 {
		t.Errorf("n=1 doc = %+v, want one row under the whole profile's headline", top)
	}
}

// TestTotalsIndependentOfRowOrder: a profile is a pure function of what
// the meter was charged. ~200 rows spanning 1…1e12 cycles are charged
// to two worker meters in different orders, some rows to both; the
// workers merged in either order give the same profile row for row, and
// its Total, Frac and Cum are bit for bit one sum taken in the sorted
// (hottest-first) order — float addition is not associative, so a sum
// in any other order moves the last bits, and with them funcs_for_65
// whenever a Cum sits on 0.65.
func TestTotalsIndependentOfRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := sim.NewMeter(sim.DefaultCostModel()), sim.NewMeter(sim.DefaultCostModel())
	const n = 200
	for _, i := range rng.Perm(n) {
		a.AddUops(fmt.Sprintf("fn_%03d", i), sim.Category(i%sim.NumCategories), math.Pow(10, 12*rng.Float64()))
	}
	for _, i := range rng.Perm(n) {
		if i%3 == 0 {
			b.AddUops(fmt.Sprintf("fn_%03d", i), sim.Category(i%sim.NumCategories), math.Pow(10, 12*rng.Float64()))
		}
	}
	merged := func(first, second *sim.Meter) Profile {
		mt := sim.NewMeter(sim.DefaultCostModel())
		mt.Merge(first)
		mt.Merge(second)
		p := FromMeter(mt)
		if p.Total != mt.TotalCycles() {
			t.Errorf("profile total %v, meter total %v", p.Total, mt.TotalCycles())
		}
		return p
	}
	ab, ba := merged(a, b), merged(b, a)

	// The reference: rows hottest-first, every sum taken in that order.
	want := ab.TopN(0)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Cycles > want[j].Cycles })
	var total, cum float64
	for _, r := range want {
		total += r.Cycles
	}
	for i := range want {
		want[i].Frac = want[i].Cycles / total
		cum += want[i].Frac
		want[i].Cum = cum
	}
	if len(want) != n {
		t.Fatalf("%d rows, want %d: one per (function, category)", len(want), n)
	}
	for _, p := range []Profile{ab, ba} {
		if p.Total != total || len(p.Entries) != len(want) {
			t.Fatalf("total %v over %d rows, want %v over %d", p.Total, len(p.Entries), total, len(want))
		}
		for i, e := range p.Entries {
			if e != want[i] {
				t.Fatalf("row %d = %+v, want %+v", i, e, want[i])
			}
		}
	}
}
