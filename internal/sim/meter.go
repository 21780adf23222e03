package sim

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// Mitigations selects which prior-work optimizations from §3 are applied.
// The paper applies all four together to expose the fundamental dominant
// activities before adding its own accelerators.
type Mitigations struct {
	// InlineCaching enables inline caching and hash map inlining, which
	// specialize hash map accesses with static or predictable key names
	// into offset accesses.
	InlineCaching bool
	// CheckedLoad enables hardware type checking in the cache subsystem.
	CheckedLoad bool
	// HardwareRefCount enables hardware-assisted reference counting.
	HardwareRefCount bool
	// TunedAllocator reduces kernel involvement in allocation slab refill.
	TunedAllocator bool
}

// AllMitigations returns the §3 configuration with every prior-work
// optimization applied.
func AllMitigations() Mitigations {
	return Mitigations{
		InlineCaching:    true,
		CheckedLoad:      true,
		HardwareRefCount: true,
		TunedAllocator:   true,
	}
}

// FnStats aggregates the cost attributed to one leaf function.
type FnStats struct {
	Name     string
	Category Category
	Uops     float64 // micro-ops executed on the general-purpose core
	AccelCyc float64 // cycles spent inside accelerator datapaths
	AccelEng float64 // accelerator energy, pJ
	Calls    int64
}

// Cycles returns the function's total cycle cost under the given model.
func (f *FnStats) Cycles(m *CostModel) float64 {
	return m.Cycles(f.Uops) + f.AccelCyc
}

// Energy returns the function's total energy in picojoules.
func (f *FnStats) Energy(m *CostModel) float64 {
	return f.Uops*m.EnergyPerUop + f.AccelEng
}

// Meter accumulates simulation cost, attributed to leaf functions and
// activity categories. It is the Go analogue of the paper's trace-driven
// simulator counters. Meter is not safe for concurrent use; each simulated
// core owns one.
type Meter struct {
	Model CostModel
	Mit   Mitigations

	// rows holds one FnStats per {function, category}, dense, in
	// first-charge order; index finds a row by content (the slow path).
	rows  []FnStats
	index map[fnKey]int32
	// memo maps a name's identity (data address, category) to its row, so
	// a steady-state charge hashes no name bytes. It holds row numbers and
	// every hit is re-verified against the row: stale entries are harmless.
	memo [1 << memoBits]uint16

	// catUops and catAccelCyc are running per-category totals maintained
	// on every charge, so CategoryCyclesVec is O(NumCategories) instead
	// of a walk over every leaf function. The cycle conversion is linear
	// in uops (CostModel.Cycles), so the incremental totals are exact.
	// Span hooks snapshot this vector twice per span, which is why it
	// must not cost a map iteration.
	catUops     [numCategories]float64
	catAccelCyc [numCategories]float64

	accelCycles [numAccelKinds]float64
	accelEnergy [numAccelKinds]float64
	accelCalls  [numAccelKinds]int64
}

// fnKey separates attribution by function and category: a leaf function
// that performs work in more than one activity (a VM helper that both
// walks a hash map and allocates) gets one row per activity, keeping the
// category breakdowns (Figs. 4, 5, 15) exact.
type fnKey struct {
	name string
	cat  Category
}

const memoBits = 11

// nameID returns the address of s's bytes, the identity the memo keys on.
// It is the package's only use of unsafe. Soundness: the address is never
// dereferenced, and it is only ever compared with the nameID of a string
// that is live at the same moment (a row's Name, which the row keeps
// reachable, against the caller's argument). Go strings are immutable and
// the heap does not move, so two live strings with the same address and
// the same length hold the same bytes; a name whose memory was freed and
// reused cannot match, because the memo stores row numbers, never
// addresses. (A name stored into a row escapes, so it is never on a
// stack that could move.)
func nameID(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }

// NewMeter returns a Meter using the given cost model.
func NewMeter(model CostModel) *Meter {
	return &Meter{Model: model, index: make(map[fnKey]int32)}
}

// Reset clears all accumulated statistics but keeps the model and
// mitigation configuration.
func (mt *Meter) Reset() {
	mt.rows = nil // not rows[:0]: earlier Functions() results keep their values
	clear(mt.index)
	mt.catUops = [numCategories]float64{}
	mt.catAccelCyc = [numCategories]float64{}
	mt.accelCycles = [numAccelKinds]float64{}
	mt.accelEnergy = [numAccelKinds]float64{}
	mt.accelCalls = [numAccelKinds]int64{}
}

// fn returns the row charged for {name, cat}. A memo hit is accepted only
// when the row it names has this category and this very string (same
// address, same length), so it is provably the same key; an empty slot, a
// collision or a fresh copy of a known name takes the index and lands on
// the same row a hit would have.
func (mt *Meter) fn(name string, cat Category) *FnStats {
	id := nameID(name)
	slot := &mt.memo[(uint64(id)|uint64(cat)<<56)*0x9E3779B97F4A7C15>>(64-memoBits)]
	if r := int(*slot); r < len(mt.rows) {
		if f := &mt.rows[r]; f.Category == cat && len(f.Name) == len(name) && nameID(f.Name) == id {
			return f
		}
	}
	k := fnKey{name, cat}
	r, ok := mt.index[k]
	if !ok {
		r = int32(len(mt.rows))
		mt.rows = append(mt.rows, FnStats{Name: name, Category: cat})
		mt.index[k] = r
	}
	f := &mt.rows[r]
	// Only the row's own copy of the name can ever hit, so only it takes
	// the slot: freshly built copies never evict a useful entry.
	if nameID(f.Name) == id && r < 1<<16 {
		*slot = uint16(r)
	}
	return f
}

// Merge folds another meter's accumulated statistics into this one:
// per-function uops, accelerator cycles/energy, and call counts all sum.
// It is the fleet-aggregation primitive for multi-worker runs — each
// worker owns a private Meter while serving, and the pool merges them
// after the goroutines join. The other meter is read-only during the
// merge and is left unchanged; models and mitigation flags are not
// merged (the receiver keeps its own).
func (mt *Meter) Merge(o *Meter) {
	for i := range o.rows {
		f := &o.rows[i]
		dst := mt.fn(f.Name, f.Category)
		dst.Uops += f.Uops
		dst.AccelCyc += f.AccelCyc
		dst.AccelEng += f.AccelEng
		dst.Calls += f.Calls
	}
	for i := 0; i < int(numCategories); i++ {
		mt.catUops[i] += o.catUops[i]
		mt.catAccelCyc[i] += o.catAccelCyc[i]
	}
	for i := 0; i < int(numAccelKinds); i++ {
		mt.accelCycles[i] += o.accelCycles[i]
		mt.accelEnergy[i] += o.accelEnergy[i]
		mt.accelCalls[i] += o.accelCalls[i]
	}
}

// AddUops charges uops micro-ops of core work to the named leaf function.
func (mt *Meter) AddUops(name string, cat Category, uops float64) {
	f := mt.fn(name, cat)
	f.Uops += uops
	f.Calls++
	mt.catUops[cat] += uops
}

// AddAccel charges cycles of accelerator datapath time (and the matching
// energy) to the named leaf function and the per-accelerator totals.
func (mt *Meter) AddAccel(name string, cat Category, kind AccelKind, cycles float64) {
	f := mt.fn(name, cat)
	eng := cycles * mt.Model.EnergyPerAccelCycle[kind]
	f.AccelCyc += cycles
	f.AccelEng += eng
	f.Calls++
	mt.catAccelCyc[cat] += cycles
	mt.accelCycles[kind] += cycles
	mt.accelEnergy[kind] += eng
	mt.accelCalls[kind]++
}

// AddRefCount charges n reference count operations, honoring the hardware
// reference counting mitigation.
func (mt *Meter) AddRefCount(n int) {
	if n <= 0 || mt.Mit.HardwareRefCount {
		return
	}
	mt.AddUops("refcount_helper", CatRefCount, float64(n)*mt.Model.RefCountUops)
}

// AddTypeCheck charges n dynamic type checks, honoring the checked-load
// mitigation.
func (mt *Meter) AddTypeCheck(n int) {
	if n <= 0 || mt.Mit.CheckedLoad {
		return
	}
	mt.AddUops("type_check", CatTypeCheck, float64(n)*mt.Model.TypeCheckUops)
}

// total sums one per-function quantity in Functions() order. Float
// addition is order-sensitive and row order is first-charge order, which
// differs between a worker and a merge of workers; one content-defined
// order makes every total a pure function of what was charged, not of
// how it was charged or merged.
func (mt *Meter) total(of func(*FnStats) float64) float64 {
	var t float64
	for _, f := range mt.Functions() {
		t += of(f)
	}
	return t
}

// TotalUops returns the total micro-ops executed on the core.
func (mt *Meter) TotalUops() float64 {
	return mt.total(func(f *FnStats) float64 { return f.Uops })
}

// TotalCycles returns core cycles plus accelerator cycles.
func (mt *Meter) TotalCycles() float64 {
	return mt.total(func(f *FnStats) float64 { return f.Cycles(&mt.Model) })
}

// TotalEnergy returns total energy in picojoules.
func (mt *Meter) TotalEnergy() float64 {
	return mt.total(func(f *FnStats) float64 { return f.Energy(&mt.Model) })
}

// CategoryCycles returns the cycle total attributed to each category,
// summed in Functions() order like the totals.
func (mt *Meter) CategoryCycles() map[Category]float64 {
	out := make(map[Category]float64, int(numCategories))
	for _, f := range mt.Functions() {
		out[f.Category] += f.Cycles(&mt.Model)
	}
	return out
}

// CategoryVec is a dense per-category cycle vector indexed by Category.
// Being a value type, it snapshots cheaply (no map allocation), which is
// what the observability layer's per-request spans diff around a render.
type CategoryVec [NumCategories]float64

// Sub returns v - o element-wise: the cycles charged between two
// snapshots of the same meter.
func (v CategoryVec) Sub(o CategoryVec) CategoryVec {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Add returns v + o element-wise: merging two processes' category
// vectors (e.g. grafting a backend's span tree under a router span).
func (v CategoryVec) Add(o CategoryVec) CategoryVec {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Total sums the vector across categories.
func (v CategoryVec) Total() float64 {
	var t float64
	for _, c := range v {
		t += c
	}
	return t
}

// CategoryCyclesVec returns the per-category cycle totals as a dense
// vector. It reads the incrementally maintained per-category totals —
// O(NumCategories), no allocation, no function-map walk — so it is
// cheap enough to snapshot not just per request (obs.Span) but per
// span-tree node (obs.TreeBuilder), which diffs it twice per span.
func (mt *Meter) CategoryCyclesVec() CategoryVec {
	var out CategoryVec
	for i := 0; i < int(numCategories); i++ {
		out[i] = mt.Model.Cycles(mt.catUops[i]) + mt.catAccelCyc[i]
	}
	return out
}

// AccelCycles returns the datapath cycles spent in the given accelerator.
func (mt *Meter) AccelCycles(kind AccelKind) float64 { return mt.accelCycles[kind] }

// AccelCalls returns the number of invocations of the given accelerator.
func (mt *Meter) AccelCalls(kind AccelKind) int64 { return mt.accelCalls[kind] }

// Functions returns per-function statistics sorted by descending
// cycles, ties broken by name and then category, so the order is total.
// The entries point into the meter: read them before charging it again.
func (mt *Meter) Functions() []*FnStats {
	out := make([]*FnStats, len(mt.rows))
	for i := range mt.rows {
		out[i] = &mt.rows[i]
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Cycles(&mt.Model), out[j].Cycles(&mt.Model)
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

// Report renders a human-readable per-category summary, used by cmd/phpi
// -stats and examples/quickstart.
func (mt *Meter) Report() string {
	var b strings.Builder
	total := mt.TotalCycles()
	fmt.Fprintf(&b, "total cycles: %.0f  total uops: %.0f  energy: %.1f uJ\n",
		total, mt.TotalUops(), mt.TotalEnergy()/1e6)
	cc := mt.CategoryCycles()
	for _, c := range Categories() {
		if cc[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %12.0f cycles (%5.2f%%)\n", c, cc[c], 100*cc[c]/total)
	}
	return b.String()
}
