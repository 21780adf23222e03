package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// chargedMeter builds a meter and a helper that charges a known number
// of uops to a category, so tests can interleave charges with span
// boundaries and check the attributed deltas exactly.
func chargedMeter() (*sim.Meter, func(cat sim.Category, uops float64)) {
	mt := sim.NewMeter(sim.DefaultCostModel())
	return mt, func(cat sim.Category, uops float64) {
		mt.AddUops("test_fn", cat, uops)
	}
}

// selfCategories is the span's exclusive per-category cycles: the
// inclusive vector minus every direct child's — SelfCycles, per
// category.
func (s *TreeSpan) selfCategories() sim.CategoryVec {
	out := s.Categories
	for _, c := range s.Children {
		out = out.Sub(c.Categories)
	}
	return out
}

func TestTreeBuilderAttribution(t *testing.T) {
	mt, charge := chargedMeter()
	b := NewTreeBuilderAt(mt, 0, time.Now())

	charge(sim.CatOther, 100) // root-exclusive work
	b.Begin("render")
	charge(sim.CatHash, 155) // render-exclusive
	b.Begin("php:foo")
	charge(sim.CatString, 310) // leaf
	b.End()
	charge(sim.CatHash, 155) // more render-exclusive
	b.End()
	tree := b.Finish(7)

	if tree.Worker != 7 {
		t.Errorf("worker = %d", tree.Worker)
	}
	root := tree.Root
	if root.Name != "request" || len(root.Children) != 1 {
		t.Fatalf("root = %+v", root)
	}
	render := root.Children[0]
	if render.Name != "render" || len(render.Children) != 1 {
		t.Fatalf("render = %+v", render)
	}
	leaf := render.Children[0]
	if leaf.Name != "php:foo" || len(leaf.Children) != 0 {
		t.Fatalf("leaf = %+v", leaf)
	}

	// Inclusive totals must nest: root ⊇ render ⊇ leaf.
	ipc := sim.DefaultCostModel().IPC
	wantLeaf := 310 / ipc
	wantRender := (155 + 310 + 155) / ipc
	wantRoot := (100 + 155 + 310 + 155) / ipc
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"leaf", leaf.Cycles, wantLeaf},
		{"render", render.Cycles, wantRender},
		{"root", root.Cycles, wantRoot},
	} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s cycles = %v, want %v", tc.name, tc.got, tc.want)
		}
	}

	// Self cycles telescope: the sum over all spans equals the root's
	// inclusive total (the /tracez acceptance invariant).
	var selfSum float64
	root.Walk(func(sp *TreeSpan, _ int) { selfSum += sp.SelfCycles() })
	if math.Abs(selfSum-root.Cycles) > 1e-9 {
		t.Errorf("Σ self = %v, root inclusive = %v", selfSum, root.Cycles)
	}

	// Category attribution lands where the charge happened.
	if got := leaf.selfCategories()[sim.CatString]; math.Abs(got-310/ipc) > 1e-9 {
		t.Errorf("leaf string self = %v", got)
	}
	if got := render.selfCategories()[sim.CatHash]; math.Abs(got-310/ipc) > 1e-9 {
		t.Errorf("render hash self = %v", got)
	}
	if got := root.selfCategories()[sim.CatOther]; math.Abs(got-100/ipc) > 1e-9 {
		t.Errorf("root other self = %v", got)
	}
	if root.NumSpans() != 3 {
		t.Errorf("NumSpans = %d", root.NumSpans())
	}
}

func TestTreeBuilderNilSafe(t *testing.T) {
	var b *TreeBuilder
	b.Begin("x") // must not panic
	b.End()
	if tree := b.Finish(0); tree != nil {
		t.Errorf("nil builder produced tree %+v", tree)
	}
}

func TestTreeBuilderUnbalanced(t *testing.T) {
	mt, charge := chargedMeter()

	// Extra Ends are ignored; open spans are closed by Finish.
	b := NewTreeBuilderAt(mt, 0, time.Now())
	b.End()
	b.End()
	b.Begin("a")
	b.Begin("b")
	charge(sim.CatHeap, 31)
	tree := b.Finish(0)
	if got := tree.Root.NumSpans(); got != 3 {
		t.Fatalf("spans = %d, want 3", got)
	}
	a := tree.Root.Children[0]
	if a.Name != "a" || len(a.Children) != 1 || a.Children[0].Name != "b" {
		t.Fatalf("tree shape: %+v", tree.Root)
	}
	// Work charged inside the open spans is still attributed to them.
	if a.Children[0].Cycles <= 0 {
		t.Errorf("open leaf lost its charge: %v", a.Children[0].Cycles)
	}
}

func TestTreeBuilderSpanCap(t *testing.T) {
	mt, charge := chargedMeter()
	b := NewTreeBuilderAt(mt, 4, time.Now())
	// Two siblings fit (root + 2 + 1 = cap of 4)…
	b.Begin("kept1")
	b.End()
	b.Begin("kept2")
	b.Begin("kept3")
	// …anything deeper or later is dropped, and nested Begin/End pairs
	// inside a dropped span must stay balanced.
	b.Begin("dropped1")
	b.Begin("dropped2")
	charge(sim.CatRegex, 62)
	b.End()
	b.End()
	b.End() // closes kept3
	b.Begin("dropped3")
	b.End()
	tree := b.Finish(0)

	if tree.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", tree.Dropped)
	}
	if got := tree.Root.NumSpans(); got != 4 {
		t.Errorf("retained spans = %d, want 4", got)
	}
	// The dropped spans' work still lands in the innermost kept span, so
	// no cycles vanish from the tree.
	kept2 := tree.Root.Children[1]
	if kept2.Name != "kept2" || len(kept2.Children) != 1 {
		t.Fatalf("kept2 = %+v", kept2)
	}
	if kept2.Children[0].Cycles <= 0 {
		t.Errorf("dropped-span work vanished")
	}
	var selfSum float64
	tree.Root.Walk(func(sp *TreeSpan, _ int) { selfSum += sp.SelfCycles() })
	if math.Abs(selfSum-tree.Root.Cycles) > 1e-9 {
		t.Errorf("Σ self = %v, root = %v", selfSum, tree.Root.Cycles)
	}
}

func TestTreeRingBounded(t *testing.T) {
	r := NewTreeRing(3)
	for i := 0; i < 5; i++ {
		mt, _ := chargedMeter()
		b := NewTreeBuilderAt(mt, 0, time.Now())
		tree := b.Finish(i)
		tree.Request = uint64(i)
		r.Add(tree)
	}
	r.Add(nil) // ignored

	if r.Total() != 5 {
		t.Errorf("total = %d", r.Total())
	}
	got := r.Last(0)
	if len(got) != 3 {
		t.Fatalf("retained = %d", len(got))
	}
	// Oldest-first: requests 2, 3, 4 survive.
	for i, want := range []uint64{2, 3, 4} {
		if got[i].Request != want {
			t.Errorf("Last[%d].Request = %d, want %d", i, got[i].Request, want)
		}
	}
	if last1 := r.Last(1); len(last1) != 1 || last1[0].Request != 4 {
		t.Errorf("Last(1) = %+v", last1)
	}
	if lastBig := r.Last(10); len(lastBig) != 3 {
		t.Errorf("Last(10) = %d trees", len(lastBig))
	}
}

// buildSampleTree makes a small two-level tree with known cycle charges
// for the exporter tests.
func buildSampleTree(req uint64, worker int) *Tree {
	mt, charge := chargedMeter()
	b := NewTreeBuilderAt(mt, 0, time.Now())
	charge(sim.CatOther, 50)
	b.Begin("render")
	b.Begin("php:the content") // space + nothing exotic
	charge(sim.CatString, 100)
	b.End()
	charge(sim.CatHash, 25)
	b.End()
	tree := b.Finish(worker)
	tree.Request = req
	return tree
}

func TestWriteTraceEventsValid(t *testing.T) {
	trees := []*Tree{buildSampleTree(1, 0), buildSampleTree(2, 1), nil}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, trees); err != nil {
		t.Fatal(err)
	}

	var f struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			Ts   float64            `json:"ts"`
			Dur  float64            `json:"dur"`
			Pid  int                `json:"pid"`
			Tid  int                `json:"tid"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) != 6 { // 3 spans per tree × 2 trees
		t.Fatalf("events = %d, want 6", len(f.TraceEvents))
	}
	// Per tree: self cycles across events sum to the root's inclusive
	// total (the acceptance criterion).
	selfByTid := map[int]float64{}
	rootByTid := map[int]float64{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event phase %q, want X", ev.Ph)
		}
		if ev.Dur <= 0 {
			t.Errorf("event %q has non-positive dur %v", ev.Name, ev.Dur)
		}
		selfByTid[ev.Tid] += ev.Args["self_cycles"]
		if ev.Name == "request" {
			rootByTid[ev.Tid] = ev.Args["cycles"]
		}
	}
	for tid, root := range rootByTid {
		if math.Abs(selfByTid[tid]-root) > 1e-6 {
			t.Errorf("tid %d: Σ self = %v, root total = %v", tid, selfByTid[tid], root)
		}
	}
}

func TestWriteFolded(t *testing.T) {
	trees := []*Tree{buildSampleTree(1, 0), buildSampleTree(2, 0)}
	var buf bytes.Buffer
	if err := WriteFolded(&buf, trees); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("folded lines:\n%s", out)
	}
	// Frame names are sanitized and identical paths across trees merge.
	if !strings.Contains(out, "request;render;php:the_content ") {
		t.Errorf("missing merged leaf path:\n%s", out)
	}
	var total float64
	for _, ln := range lines {
		parts := strings.Split(ln, " ")
		if len(parts) != 2 {
			t.Fatalf("malformed line %q", ln)
		}
		var v float64
		if _, err := fmt.Sscanf(parts[1], "%f", &v); err != nil {
			t.Fatalf("bad weight in %q: %v", ln, err)
		}
		total += v
	}
	wantTotal := trees[0].Root.Cycles + trees[1].Root.Cycles
	// Weights are rounded to integers per line; tolerance accounts for it.
	if math.Abs(total-wantTotal) > float64(len(lines)) {
		t.Errorf("folded total = %v, trees total = %v", total, wantTotal)
	}
}

func TestCollectorTreeRing(t *testing.T) {
	c := NewCollector(1, nil, nil)
	ring := NewTreeRing(8)
	c.SetTreeRing(ring)

	tree := buildSampleTree(0, 2)
	sp := Span{Worker: 2, Sampled: true, Tree: tree}
	out := c.ObserveHTTP(sp, 10, RequestMeta{Path: "/"})
	if out.Request != 1 {
		t.Fatalf("request = %d", out.Request)
	}
	got := ring.Last(0)
	if len(got) != 1 || got[0].Request != 1 {
		t.Fatalf("ring = %+v", got)
	}
	if c.TreeRing() != ring {
		t.Error("TreeRing accessor mismatch")
	}
}

// TestAddQueueSpan: the synthetic queued span extends the request
// backwards in time without disturbing cycle attribution — the
// telescoping self-cycles invariant and the absolute start of the
// render work must both survive.
func TestAddQueueSpan(t *testing.T) {
	mt, charge := chargedMeter()
	b := NewTreeBuilderAt(mt, 0, time.Now())
	charge(sim.CatOther, 100)
	b.Begin("render")
	charge(sim.CatHash, 200)
	b.End()
	tree := b.Finish(0)

	renderAbs := tree.Start.Add(tree.Root.Children[0].Start)
	total := tree.Root.Cycles
	const wait = 40 * time.Millisecond
	tree.AddQueueSpan(wait)

	if got := tree.Root.Children[0]; got.Name != "queued" || got.Start != 0 || got.Dur != wait || got.Cycles != 0 {
		t.Fatalf("queued span = %+v", got)
	}
	render := tree.Root.Children[1]
	if render.Name != "render" || render.Start < wait {
		t.Errorf("render not shifted past the queue: %+v", render)
	}
	if gotAbs := tree.Start.Add(render.Start); !gotAbs.Equal(renderAbs) {
		t.Errorf("render absolute start moved: %v -> %v", renderAbs, gotAbs)
	}
	if tree.Root.Dur < wait {
		t.Errorf("root duration %v does not cover the wait", tree.Root.Dur)
	}
	// Cycle attribution is untouched: zero-cycle queued span, same
	// telescoped total.
	var selfSum float64
	tree.Root.Walk(func(sp *TreeSpan, _ int) { selfSum += sp.SelfCycles() })
	if math.Abs(selfSum-total) > 1e-9 {
		t.Errorf("self-cycles sum %v != root total %v after queue span", selfSum, total)
	}

	// Nil and zero-wait forms are no-ops.
	var nilTree *Tree
	nilTree.AddQueueSpan(time.Second)
	before := len(tree.Root.Children)
	tree.AddQueueSpan(0)
	if len(tree.Root.Children) != before {
		t.Errorf("zero wait added a span")
	}
}

func TestNewTreeBuilderAtSharesClock(t *testing.T) {
	mt, charge := chargedMeter()
	start := time.Now()
	b := NewTreeBuilderAt(mt, 0, start)
	charge(sim.CatOther, 100)
	tree := b.Finish(0)
	wall := time.Since(start)
	if !tree.Start.Equal(start) {
		t.Errorf("tree start = %v, want the supplied instant %v", tree.Start, start)
	}
	// Root Dur is measured from the supplied t0, so it can never exceed a
	// wall measurement taken from the same instant afterwards.
	if tree.Root.Dur > wall {
		t.Errorf("root Dur %v exceeds wall %v measured from the same clock", tree.Root.Dur, wall)
	}
}

func TestCacheHitTreeInvariant(t *testing.T) {
	var lookup sim.CategoryVec
	lookup[sim.CatHash] = 142.0
	start := time.Now()
	tree := CacheHitTree(start, 3*time.Microsecond, lookup)

	if tree.Worker != -1 {
		t.Errorf("worker = %d, want -1 (no pool worker)", tree.Worker)
	}
	root := tree.Root
	if root.Name != "request" || len(root.Children) != 1 || root.Children[0].Name != "cache_hit" {
		t.Fatalf("tree shape = %+v", root)
	}
	hit := root.Children[0]
	if hit.Cycles != 142.0 || root.Cycles != 142.0 {
		t.Errorf("cycles: hit %v root %v, want 142 each (inclusive)", hit.Cycles, root.Cycles)
	}
	// The telescoping invariant: Σ self over the tree equals the root's
	// inclusive total, with the root's own self at zero.
	var selfSum float64
	root.Walk(func(sp *TreeSpan, _ int) { selfSum += sp.SelfCycles() })
	if math.Abs(selfSum-root.Cycles) > 1e-9 {
		t.Errorf("Σ self = %v, root inclusive = %v", selfSum, root.Cycles)
	}
	if self := root.SelfCycles(); math.Abs(self) > 1e-9 {
		t.Errorf("root self = %v, want 0 (all cost in the cache_hit leaf)", self)
	}
	if got := hit.selfCategories()[sim.CatHash]; math.Abs(got-142.0) > 1e-9 {
		t.Errorf("cache_hit hash self = %v, want 142", got)
	}
	// A queue span composes with the synthetic tree like any other.
	tree.AddQueueSpan(time.Millisecond)
	if tree.Root.Children[0].Name != "queued" || tree.Root.Dur != time.Millisecond+3*time.Microsecond {
		t.Errorf("after AddQueueSpan: first child %q, root dur %v", tree.Root.Children[0].Name, tree.Root.Dur)
	}
}
