package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refMeter is the plain model the Meter is checked against: one map
// keyed by name *content* and category, nothing else. It knows nothing
// of rows, the index or the memo.
type refMeter struct {
	model CostModel
	mit   Mitigations
	fns   map[fnKey]FnStats
	catU  [numCategories]float64
	catA  [numCategories]float64
	calls [numAccelKinds]int64
	cyc   [numAccelKinds]float64
}

func newRef(model CostModel) *refMeter {
	return &refMeter{model: model, fns: map[fnKey]FnStats{}}
}

func (r *refMeter) reset() {
	n := newRef(r.model)
	n.mit = r.mit
	*r = *n
}

func (r *refMeter) addUops(name string, cat Category, uops float64) {
	k := fnKey{name, cat}
	f := r.fns[k]
	f.Name, f.Category = name, cat
	f.Uops += uops
	f.Calls++
	r.fns[k] = f
	r.catU[cat] += uops
}

func (r *refMeter) addAccel(name string, cat Category, kind AccelKind, cycles float64) {
	k := fnKey{name, cat}
	f := r.fns[k]
	f.Name, f.Category = name, cat
	f.AccelCyc += cycles
	f.AccelEng += cycles * r.model.EnergyPerAccelCycle[kind]
	f.Calls++
	r.fns[k] = f
	r.catA[cat] += cycles
	r.cyc[kind] += cycles
	r.calls[kind]++
}

func (r *refMeter) addRefCount(n int) {
	if n > 0 && !r.mit.HardwareRefCount {
		r.addUops("refcount_helper", CatRefCount, float64(n)*r.model.RefCountUops)
	}
}

// merge folds o in, in o's sorted order. Each row receives one addend
// per merge, so the order rows are visited in cannot show in the sums.
func (r *refMeter) merge(o *refMeter) {
	for _, f := range o.sorted() {
		k := fnKey{f.Name, f.Category}
		d := r.fns[k]
		d.Name, d.Category = f.Name, f.Category
		d.Uops += f.Uops
		d.AccelCyc += f.AccelCyc
		d.AccelEng += f.AccelEng
		d.Calls += f.Calls
		r.fns[k] = d
	}
	for i := range r.catU {
		r.catU[i] += o.catU[i]
		r.catA[i] += o.catA[i]
	}
	for i := range r.calls {
		r.calls[i] += o.calls[i]
		r.cyc[i] += o.cyc[i]
	}
}

// sorted is Functions()'s documented order: cycles descending, then
// name, then category.
func (r *refMeter) sorted() []FnStats {
	out := make([]FnStats, 0, len(r.fns))
	for _, f := range r.fns {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Cycles(&r.model), out[j].Cycles(&r.model)
		if ci != cj {
			return ci > cj
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// check compares everything the Meter reports with the model, exactly.
func (r *refMeter) check(t *testing.T, mt *Meter, when string) {
	t.Helper()
	want := r.sorted()
	got := mt.Functions()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", when, len(got), len(want))
	}
	var uops, cycles, energy float64
	cats := map[Category]float64{}
	for i, w := range want {
		if *got[i] != w {
			t.Fatalf("%s: row %d = %+v, want %+v", when, i, *got[i], w)
		}
		uops += w.Uops
		cycles += w.Cycles(&r.model)
		energy += w.Energy(&r.model)
		cats[w.Category] += w.Cycles(&r.model)
	}
	if mt.TotalUops() != uops || mt.TotalCycles() != cycles || mt.TotalEnergy() != energy {
		t.Fatalf("%s: totals %v/%v/%v, want %v/%v/%v", when,
			mt.TotalUops(), mt.TotalCycles(), mt.TotalEnergy(), uops, cycles, energy)
	}
	if cc := mt.CategoryCycles(); !reflect.DeepEqual(cc, cats) {
		t.Fatalf("%s: CategoryCycles %v, want %v", when, cc, cats)
	}
	var vec CategoryVec
	for i := range vec {
		vec[i] = r.model.Cycles(r.catU[i]) + r.catA[i]
	}
	if mt.CategoryCyclesVec() != vec {
		t.Fatalf("%s: CategoryCyclesVec %v, want %v", when, mt.CategoryCyclesVec(), vec)
	}
	for _, k := range AccelKinds() {
		if mt.AccelCalls(k) != r.calls[k] || mt.AccelCycles(k) != r.cyc[k] {
			t.Fatalf("%s: accel %v calls/cycles %d/%v, want %d/%v", when, k,
				mt.AccelCalls(k), mt.AccelCycles(k), r.calls[k], r.cyc[k])
		}
	}
	if len(mt.index) != len(mt.rows) {
		t.Fatalf("%s: %d rows but %d index entries", when, len(mt.rows), len(mt.index))
	}
}

// fresh returns a copy of s at a new address: equal in content, distinct
// in identity — what a caller that builds its leaf names per call passes.
func fresh(s string) string { return string([]byte(s)) }

// TestMeterAgainstReferenceModel drives random operation sequences
// through two Meters and two reference models and compares everything
// after every Merge and Reset and at the end. The names are the cases an
// identity memo can get wrong: the same content at several addresses,
// one address under several lengths (a name and its prefixes), one name
// under several categories, the empty name, and more live names than the
// memo has slots, so some are certain to share one.
func TestMeterAgainstReferenceModel(t *testing.T) {
	model := DefaultCostModel()
	var names []string
	for _, s := range []string{"", "a", "zend_hash_find", "memcpy", "refcount_helper", "sw_tail_07"} {
		names = append(names, s, fresh(s), fresh(s))
	}
	long := fresh("zend_hash_find_ex")
	names = append(names, long, long[:14], long[:9], long[:0])
	for i := 0; len(names) <= 5*len(Meter{}.memo)/4; i++ {
		names = append(names, fmt.Sprintf("leaf_%05d", i))
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mts := [2]*Meter{NewMeter(model), NewMeter(model)}
		refs := [2]*refMeter{newRef(model), newRef(model)}
		if seed%2 == 0 {
			mts[0].Mit.HardwareRefCount, refs[0].mit.HardwareRefCount = true, true
		}
		for step := 0; step < 30000; step++ {
			w := rng.Intn(2)
			mt, ref := mts[w], refs[w]
			name := names[rng.Intn(len(names))]
			if rng.Intn(3) > 0 { // most charges go to a small hot set
				name = names[rng.Intn(22)]
			}
			if rng.Intn(8) == 0 {
				name = fresh(name)
			}
			cat := Category(rng.Intn(int(numCategories)))
			amount := float64(rng.Intn(1000)) / 7
			switch op := rng.Intn(1000); {
			case op < 600:
				mt.AddUops(name, cat, amount)
				ref.addUops(name, cat, amount)
			case op < 950:
				kind := AccelKind(rng.Intn(int(numAccelKinds)))
				mt.AddAccel(name, cat, kind, amount)
				ref.addAccel(name, cat, kind, amount)
			case op < 990:
				n := rng.Intn(5) - 1
				mt.AddRefCount(n)
				ref.addRefCount(n)
			case op < 997:
				mt.Merge(mts[1-w])
				ref.merge(refs[1-w])
				ref.check(t, mt, fmt.Sprintf("seed %d step %d after Merge", seed, step))
			default:
				mt.Reset()
				ref.reset()
				ref.check(t, mt, fmt.Sprintf("seed %d step %d after Reset", seed, step))
			}
		}
		for w := range mts {
			refs[w].check(t, mts[w], fmt.Sprintf("seed %d meter %d at end", seed, w))
		}
	}
}

// TestMeterSlotSharingNamesKeepTheirRows cycles more live names than the
// memo has slots, round-robin: whichever pairs share a slot evict each
// other on every charge, and each must still land on its own row.
func TestMeterSlotSharingNamesKeepTheirRows(t *testing.T) {
	mt := NewMeter(DefaultCostModel())
	names := make([]string, len(mt.memo)+1)
	for i := range names {
		names[i] = fmt.Sprintf("leaf_%05d", i)
	}
	for round := 1; round <= 3; round++ {
		for i, n := range names {
			mt.AddUops(n, CatOther, float64(i))
		}
	}
	if len(mt.rows) != len(names) {
		t.Fatalf("%d rows for %d names", len(mt.rows), len(names))
	}
	for i, f := range mt.rows { // rows are in first-charge order
		if f.Name != names[i] || f.Calls != 3 || f.Uops != 3*float64(i) {
			t.Fatalf("row %d = %+v, want %q charged 3 times", i, f, names[i])
		}
	}
}

// TestMeterFreshCopiesLeaveOneRow: a caller that rebuilds its leaf name
// for every charge costs the slow path each time but grows nothing — one
// row, one index entry, and a memo that is a fixed array of a few KB.
func TestMeterFreshCopiesLeaveOneRow(t *testing.T) {
	mt := NewMeter(DefaultCostModel())
	for i := 0; i < 100000; i++ {
		mt.AddUops(fresh("wp_render_page"), CatString, 2)
	}
	if len(mt.rows) != 1 || len(mt.index) != 1 || mt.rows[0].Calls != 100000 || mt.rows[0].Uops != 200000 {
		t.Fatalf("rows %d index %d first %+v, want one row charged 100000 times", len(mt.rows), len(mt.index), mt.rows)
	}
	if size := len(mt.memo) * 2; size > 8<<10 {
		t.Errorf("memo is %d bytes per meter, want a few KB", size)
	}
}

// TestMeterIdentitySurvivesGC is the soundness check for nameID: names
// are built, charged and dropped with a collection in between — the
// copies no row kept every round, the rows' own names at each Reset — so
// the allocator hands later, different names the same addresses. A memo
// that remembered addresses would credit them to the dead names' rows;
// this one remembers row numbers and asks the row, which keeps its own
// name alive.
func TestMeterIdentitySurvivesGC(t *testing.T) {
	model := DefaultCostModel()
	mt, ref := NewMeter(model), newRef(model)
	for round := 0; round < 70; round++ {
		for i := 0; i < 8; i++ {
			// Same length every round, so freed names are reused exactly.
			name := fmt.Sprintf("fn_%02d_%02d", round%3, (i+round)%11)
			mt.AddUops(name, CatHash, float64(round+i))
			ref.addUops(name, CatHash, float64(round+i))
			shared := fresh("shared_leaf")
			mt.AddAccel(shared, CatString, AccelString, 1.5)
			ref.addAccel(shared, CatString, AccelString, 1.5)
		}
		runtime.GC()
		if round%20 == 19 {
			ref.check(t, mt, fmt.Sprintf("round %d", round))
			mt.Reset()
			ref.reset()
		}
	}
	ref.check(t, mt, "at end")
}

// TestMergeOrderInvariant: two workers with different functions, charged
// in different orders, merged A-then-B and B-then-A. Row order differs
// between the two fleets; nothing reported may.
func TestMergeOrderInvariant(t *testing.T) {
	model := DefaultCostModel()
	a, b := NewMeter(model), NewMeter(model)
	for i := 0; i < 300; i++ {
		// Awkward magnitudes so that addition order would show in a sum.
		a.AddUops(fmt.Sprintf("fn_%02d", i%40), Category(i%int(numCategories)), 1e9/float64(i+3)+0.1*float64(i))
		j := 299 - i
		b.AddUops(fmt.Sprintf("fn_%02d", 20+j%40), Category(j%int(numCategories)), 1e7/float64(j+7)+0.3*float64(j))
		b.AddAccel("accel_fn", CatString, AccelString, 12.5/float64(i+1))
	}
	ab, ba := NewMeter(model), NewMeter(model)
	ab.Merge(a)
	ab.Merge(b)
	ba.Merge(b)
	ba.Merge(a)
	if ab.rows[0].Name == ba.rows[0].Name {
		t.Fatal("test is vacuous: both merges produced the same row order")
	}
	if x, y := ab.CategoryCycles(), ba.CategoryCycles(); !reflect.DeepEqual(x, y) {
		t.Errorf("CategoryCycles differ with merge order:\n %v\n %v", x, y)
	}
	if x, y := ab.TotalEnergy(), ba.TotalEnergy(); x != y {
		t.Errorf("TotalEnergy differs with merge order: %v vs %v", x, y)
	}
	if x, y := ab.CategoryCyclesVec(), ba.CategoryCyclesVec(); x != y {
		t.Errorf("CategoryCyclesVec differs with merge order: %v vs %v", x, y)
	}
	x, y := ab.Functions(), ba.Functions()
	if len(x) != len(y) {
		t.Fatalf("%d vs %d functions", len(x), len(y))
	}
	for i := range x {
		if *x[i] != *y[i] {
			t.Errorf("Functions()[%d] differs with merge order: %+v vs %+v", i, *x[i], *y[i])
		}
	}
}
