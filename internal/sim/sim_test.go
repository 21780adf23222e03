package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core/straccel"
)

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		CatOther:     "other",
		CatHash:      "hash",
		CatHeap:      "heap",
		CatString:    "string",
		CatRegex:     "regex",
		CatTypeCheck: "typecheck",
		CatRefCount:  "refcount",
		CatKernel:    "kernel",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	if Category(200).String() != "unknown" {
		t.Errorf("out-of-range category should stringify to unknown")
	}
}

func TestCategoriesCoverAll(t *testing.T) {
	cats := Categories()
	if len(cats) != int(numCategories) {
		t.Fatalf("Categories() returned %d entries, want %d", len(cats), numCategories)
	}
	seen := map[Category]bool{}
	for _, c := range cats {
		if seen[c] {
			t.Errorf("duplicate category %v", c)
		}
		seen[c] = true
	}
}

func TestAccelKindStrings(t *testing.T) {
	if len(AccelKinds()) != int(numAccelKinds) {
		t.Fatalf("AccelKinds() incomplete")
	}
	for _, k := range AccelKinds() {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestHashWalkCostMatchesPaperAverage(t *testing.T) {
	m := DefaultCostModel()
	// The workload-typical walk (2 probes, ~12-byte key) must land near the
	// paper's 90.66 micro-op average.
	got := m.HashWalkCost(2, 12)
	if got < 80 || got < m.HashWalkBase {
		t.Errorf("typical hash walk cost %.2f, want near 90.66", got)
	}
	if math.Abs(got-90.66) > 15 {
		t.Errorf("typical hash walk cost %.2f too far from paper's 90.66", got)
	}
}

func TestHashWalkCostMonotonic(t *testing.T) {
	m := DefaultCostModel()
	f := func(p, k uint8) bool {
		probes, keyB := int(p%16)+1, int(k)
		base := m.HashWalkCost(probes, keyB)
		return m.HashWalkCost(probes+1, keyB) > base && m.HashWalkCost(probes, keyB+8) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashWalkCostClampsProbes(t *testing.T) {
	m := DefaultCostModel()
	if got, want := m.HashWalkCost(0, 0), m.HashWalkCost(1, 0); got != want {
		t.Errorf("probes<1 should clamp to 1: got %v want %v", got, want)
	}
}

func TestStringCostChunks(t *testing.T) {
	m := DefaultCostModel()
	if m.StringCost(0) != m.StringFixed+m.StringPerChunk {
		t.Errorf("empty string should still cost one chunk")
	}
	if m.StringCost(16) != m.StringFixed+m.StringPerChunk {
		t.Errorf("16 bytes is one SSE chunk")
	}
	if m.StringCost(17) != m.StringFixed+2*m.StringPerChunk {
		t.Errorf("17 bytes is two SSE chunks")
	}
}

func TestStringAccelBeatsSoftwareOnLargeInputs(t *testing.T) {
	// The accelerator processes 64 bytes in <=3 cycles; SSE software needs
	// several micro-ops per 16-byte chunk. For any non-trivial length the
	// accelerated cycle count must win (this is the paper's Fig. 15 string
	// benefit in miniature).
	m := DefaultCostModel()
	block := straccel.DefaultConfig().BlockBytes
	for _, n := range []int{64, 256, 1024, 65536} {
		sw := m.Cycles(m.StringCost(n))
		// What isa charges per stringop: the issue plus one pass per block.
		hw := m.StrInvokeCycles + float64((n+block-1)/block)*m.StrBlockCycles
		if hw >= sw {
			t.Errorf("n=%d: accel %.1f cycles not faster than software %.1f", n, hw, sw)
		}
	}
}

func TestRegexScanCostLinear(t *testing.T) {
	m := DefaultCostModel()
	d1 := m.RegexScanCost(100) - m.RegexScanCost(0)
	d2 := m.RegexScanCost(200) - m.RegexScanCost(100)
	if math.Abs(d1-d2) > 1e-9 {
		t.Errorf("regex scan cost not linear: %v vs %v", d1, d2)
	}
}

func TestCyclesIPC(t *testing.T) {
	m := DefaultCostModel()
	if got := m.Cycles(m.IPC * 100); math.Abs(got-100) > 1e-9 {
		t.Errorf("Cycles(IPC*100) = %v, want 100", got)
	}
	var zero CostModel
	if zero.Cycles(42) != 42 {
		t.Errorf("zero-IPC model should pass uops through")
	}
}

func TestMeterAttribution(t *testing.T) {
	mt := NewMeter(DefaultCostModel())
	mt.AddUops("zend_hash_find", CatHash, 90)
	mt.AddUops("zend_hash_find", CatHash, 90)
	mt.AddUops("memcpy", CatString, 10)

	fns := mt.Functions()
	if len(fns) != 2 {
		t.Fatalf("got %d functions, want 2", len(fns))
	}
	if fns[0].Name != "zend_hash_find" || fns[0].Uops != 180 || fns[0].Calls != 2 {
		t.Errorf("hottest function wrong: %+v", fns[0])
	}
	cc := mt.CategoryCycles()
	if cc[CatHash] <= cc[CatString] {
		t.Errorf("hash category should dominate: %v", cc)
	}
	if math.Abs(mt.TotalUops()-190) > 1e-9 {
		t.Errorf("TotalUops = %v, want 190", mt.TotalUops())
	}
}

func TestMeterAccelAccounting(t *testing.T) {
	mt := NewMeter(DefaultCostModel())
	mt.AddAccel("hashtableget", CatHash, AccelHashTable, 3)
	mt.AddAccel("hashtableget", CatHash, AccelHashTable, 3)
	if mt.AccelCycles(AccelHashTable) != 6 {
		t.Errorf("AccelCycles = %v, want 6", mt.AccelCycles(AccelHashTable))
	}
	if mt.AccelCalls(AccelHashTable) != 2 {
		t.Errorf("AccelCalls = %v, want 2", mt.AccelCalls(AccelHashTable))
	}
	wantE := 6 * mt.Model.EnergyPerAccelCycle[AccelHashTable]
	if math.Abs(mt.TotalEnergy()-wantE) > 1e-9 {
		t.Errorf("TotalEnergy = %v, want %v", mt.TotalEnergy(), wantE)
	}
	// Accelerator cycles bypass the IPC divisor.
	if math.Abs(mt.TotalCycles()-6) > 1e-9 {
		t.Errorf("TotalCycles = %v, want 6", mt.TotalCycles())
	}
}

func TestMeterMitigationsSuppressOverheads(t *testing.T) {
	base := NewMeter(DefaultCostModel())
	base.AddRefCount(1000)
	base.AddTypeCheck(1000)
	if base.TotalUops() == 0 {
		t.Fatalf("unmitigated meter should record overhead")
	}

	mit := NewMeter(DefaultCostModel())
	mit.Mit = AllMitigations()
	mit.AddRefCount(1000)
	mit.AddTypeCheck(1000)
	if mit.TotalUops() != 0 {
		t.Errorf("mitigated meter recorded %v uops, want 0", mit.TotalUops())
	}
}

func TestMeterReset(t *testing.T) {
	mt := NewMeter(DefaultCostModel())
	mt.AddUops("f", CatOther, 10)
	mt.AddAccel("g", CatHash, AccelHashTable, 2)
	mt.Reset()
	if mt.TotalUops() != 0 || mt.TotalCycles() != 0 || mt.AccelCalls(AccelHashTable) != 0 {
		t.Errorf("Reset did not clear meter")
	}
}

func TestMeterReport(t *testing.T) {
	mt := NewMeter(DefaultCostModel())
	mt.AddUops("f", CatHash, 100)
	r := mt.Report()
	if !strings.Contains(r, "hash") || !strings.Contains(r, "total cycles") {
		t.Errorf("report missing fields:\n%s", r)
	}
}

func TestFnStatsEnergy(t *testing.T) {
	m := DefaultCostModel()
	f := FnStats{Uops: 10, AccelEng: 5}
	want := 10*m.EnergyPerUop + 5
	if got := f.Energy(&m); math.Abs(got-want) > 1e-9 {
		t.Errorf("Energy = %v, want %v", got, want)
	}
}

func TestAllMitigations(t *testing.T) {
	m := AllMitigations()
	if !m.InlineCaching || !m.CheckedLoad || !m.HardwareRefCount || !m.TunedAllocator {
		t.Errorf("AllMitigations should enable everything: %+v", m)
	}
}

func TestFunctionsSortedDeterministically(t *testing.T) {
	mt := NewMeter(DefaultCostModel())
	mt.AddUops("b", CatOther, 10)
	mt.AddUops("a", CatOther, 10)
	fns := mt.Functions()
	if fns[0].Name != "a" || fns[1].Name != "b" {
		t.Errorf("equal-cost functions should sort by name: %v, %v", fns[0].Name, fns[1].Name)
	}
}

func TestMeterMerge(t *testing.T) {
	model := DefaultCostModel()
	a, b := NewMeter(model), NewMeter(model)
	a.AddUops("shared_fn", CatHash, 100)
	b.AddUops("shared_fn", CatHash, 50)
	b.AddUops("b_only_fn", CatString, 30)
	a.AddAccel("accel_fn", CatHash, AccelHashTable, 10)
	b.AddAccel("accel_fn", CatHash, AccelHashTable, 5)

	wantCycles := a.TotalCycles() + b.TotalCycles()
	wantUops := a.TotalUops() + b.TotalUops()
	wantEnergy := a.TotalEnergy() + b.TotalEnergy()
	bCyclesBefore := b.TotalCycles()

	a.Merge(b)
	if got := a.TotalCycles(); math.Abs(got-wantCycles) > 1e-9 {
		t.Errorf("merged cycles %g, want %g", got, wantCycles)
	}
	if got := a.TotalUops(); math.Abs(got-wantUops) > 1e-9 {
		t.Errorf("merged uops %g, want %g", got, wantUops)
	}
	if got := a.TotalEnergy(); math.Abs(got-wantEnergy) > 1e-9 {
		t.Errorf("merged energy %g, want %g", got, wantEnergy)
	}
	if got := a.AccelCycles(AccelHashTable); got != 15 {
		t.Errorf("merged accel cycles %g, want 15", got)
	}
	if got := a.AccelCalls(AccelHashTable); got != 2 {
		t.Errorf("merged accel calls %d, want 2", got)
	}
	// Per-function stats must sum, and calls must be preserved.
	for _, f := range a.Functions() {
		switch f.Name {
		case "shared_fn":
			if f.Uops != 150 || f.Calls != 2 {
				t.Errorf("shared_fn merged wrong: %+v", f)
			}
		case "b_only_fn":
			if f.Uops != 30 || f.Calls != 1 {
				t.Errorf("b_only_fn merged wrong: %+v", f)
			}
		}
	}
	// The source meter is untouched.
	if b.TotalCycles() != bCyclesBefore {
		t.Errorf("Merge mutated its argument")
	}
}

// TestTotalsIndependentOfChargeOrder: two meters holding the same
// per-function charges — entered in opposite orders, one of them via
// Merge, with same-name same-cycles rows in different categories —
// report bit-identical totals. Summing in map-iteration order used to
// leave the last bits of /stats sim_energy_pj to chance.
func TestTotalsIndependentOfChargeOrder(t *testing.T) {
	type charge struct {
		name string
		cat  Category
		uops float64
	}
	var charges []charge
	for i := 0; i < 200; i++ {
		// Awkward magnitudes so that addition order shows in the sum.
		charges = append(charges, charge{"fn_" + string(rune('a'+i%26)), Category(i % int(NumCategories)), 1e9/float64(i+3) + 0.1*float64(i)})
	}
	charges = append(charges, charge{"twin", CatHash, 42}, charge{"twin", CatHeap, 42})

	model := DefaultCostModel()
	fwd, rev, part := NewMeter(model), NewMeter(model), NewMeter(model)
	for i, c := range charges {
		fwd.AddUops(c.name, c.cat, c.uops)
		r := charges[len(charges)-1-i]
		dst := rev
		if i%2 == 1 {
			dst = part
		}
		dst.AddUops(r.name, r.cat, r.uops)
	}
	fwd.AddAccel("accel_fn", CatString, AccelString, 12.5)
	part.AddAccel("accel_fn", CatString, AccelString, 12.5)
	rev.Merge(part)

	for i := 0; i < 20; i++ { // map iteration order differs call to call
		if a, b := fwd.TotalEnergy(), rev.TotalEnergy(); a != b {
			t.Fatalf("TotalEnergy differs with charge order: %v vs %v", a, b)
		}
		if a, b := fwd.TotalCycles(), rev.TotalCycles(); a != b {
			t.Fatalf("TotalCycles differs with charge order: %v vs %v", a, b)
		}
		if a, b := fwd.TotalUops(), rev.TotalUops(); a != b {
			t.Fatalf("TotalUops differs with charge order: %v vs %v", a, b)
		}
	}
	fns := fwd.Functions()
	for i := 1; i < len(fns); i++ {
		if fns[i-1].Name == "twin" && fns[i].Name == "twin" && fns[i-1].Category > fns[i].Category {
			t.Errorf("same-name same-cycles rows not ordered by category: %v before %v", fns[i-1].Category, fns[i].Category)
		}
	}
}
