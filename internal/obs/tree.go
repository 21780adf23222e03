package obs

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// DefaultMaxTreeSpans bounds how many spans one request's tree may hold
// before further Begin calls are counted but not recorded. A hostile or
// pathological request (a script looping over millions of builtin calls)
// therefore costs bounded memory on the sampled path.
const DefaultMaxTreeSpans = 512

// TreeSpan is one timed node of a request's span tree: a named phase of
// execution (render, a PHP function call, a texturize chain) carrying
// its wall-clock interval and the simulated cycles charged while it was
// open, broken down by activity category. Cycles and Categories are
// inclusive of children; SelfCycles subtracts them.
type TreeSpan struct {
	// Name identifies the phase ("request", "render", "php:texturize").
	Name string
	// Start is the offset from the request's start.
	Start time.Duration
	// Dur is the span's wall-clock duration.
	Dur time.Duration
	// Cycles is the simulated cycle total charged while the span was
	// open, children included.
	Cycles float64
	// Categories breaks Cycles down by sim.Category (inclusive).
	Categories sim.CategoryVec
	// Children are the spans opened (and closed) while this one was open.
	Children []*TreeSpan
}

// SelfCycles returns the span's exclusive simulated cycle total: the
// inclusive total minus every direct child's. Summed over a whole tree,
// the self totals telescope back to the root's inclusive one, which is
// the invariant the flamegraph export relies on.
func (s *TreeSpan) SelfCycles() float64 {
	t := s.Cycles
	for _, c := range s.Children {
		t -= c.Cycles
	}
	return t
}

// Walk visits the span and its descendants depth-first in start order,
// passing each node's depth (0 for the receiver).
func (s *TreeSpan) Walk(f func(sp *TreeSpan, depth int)) {
	s.walk(f, 0)
}

func (s *TreeSpan) walk(f func(sp *TreeSpan, depth int), depth int) {
	f(s, depth)
	for _, c := range s.Children {
		c.walk(f, depth+1)
	}
}

// NumSpans returns the number of nodes in the subtree rooted at s.
func (s *TreeSpan) NumSpans() int {
	n := 1
	for _, c := range s.Children {
		n += c.NumSpans()
	}
	return n
}

// Tree is one sampled request's complete span tree. Root is always the
// "request" span, so Root.Cycles is the request's total simulated cycle
// cost and Root.Dur its render wall time.
type Tree struct {
	// Request is the server-assigned request sequence number (set by
	// Collector.ObserveHTTP, 0 until then).
	Request uint64
	// ID is the cross-process request correlation ID (X-Request-Id),
	// empty for trees that predate ID propagation. It is what lets the
	// router find this tree at the backend's /tracez?rid= and stitch it
	// under its own proxy span.
	ID string
	// Worker is the pool worker that served the request.
	Worker int
	// Start is the wall-clock time the request began.
	Start time.Time
	// Root is the request span.
	Root *TreeSpan
	// Dropped counts Begin calls that exceeded the tree's span budget
	// and were recorded only as this count.
	Dropped int
}

// SetID stamps the tree with its request correlation ID. No-op on a nil
// tree, which keeps the unsampled caller path branch-free.
func (t *Tree) SetID(id string) {
	if t == nil {
		return
	}
	t.ID = id
}

// AddQueueSpan extends the tree backwards in time with a synthetic
// "queued" first child covering the wait seconds the request spent in
// the admission queue before its render began. The queued span carries
// zero cycles (no simulated work happens while waiting), so the
// self-cycles telescoping invariant is untouched; the root's wall
// duration grows by wait and its start moves back, so exported
// timelines show request = queued + render with absolute times intact.
// No-op on a nil tree or non-positive wait, which keeps the unqueued
// path branch-free for callers.
func (t *Tree) AddQueueSpan(wait time.Duration) {
	if t == nil || t.Root == nil || wait <= 0 {
		return
	}
	for _, c := range t.Root.Children {
		c.shiftStart(wait)
	}
	q := &TreeSpan{Name: "queued", Start: 0, Dur: wait}
	t.Root.Children = append([]*TreeSpan{q}, t.Root.Children...)
	t.Root.Dur += wait
	t.Start = t.Start.Add(-wait)
}

// CacheHitTree builds the span tree of a request answered from the
// response cache: a "request" root whose only child is a "cache_hit"
// span, both spanning the whole (tiny) wall interval and both carrying
// the cache's fixed lookup cost vector — no render span exists because
// no render happened. The root's self vector telescopes to zero and the
// leaf carries the full inclusive total, so flamegraph and trace
// exports hold the same self-cycles invariant as rendered trees.
// Worker is -1: no pool worker served the request.
func CacheHitTree(start time.Time, wall time.Duration, lookup sim.CategoryVec) *Tree {
	hit := &TreeSpan{
		Name:       "cache_hit",
		Dur:        wall,
		Cycles:     lookup.Total(),
		Categories: lookup,
	}
	root := &TreeSpan{
		Name:       "request",
		Dur:        wall,
		Cycles:     lookup.Total(),
		Categories: lookup,
		Children:   []*TreeSpan{hit},
	}
	return &Tree{Worker: -1, Start: start, Root: root}
}

// shiftStart moves a span and its descendants later by d (offsets are
// all relative to the request start).
func (s *TreeSpan) shiftStart(d time.Duration) {
	s.Start += d
	for _, c := range s.Children {
		c.shiftStart(d)
	}
}

// treeFrame is one open span plus the category snapshot taken when it
// was opened.
type treeFrame struct {
	span     *TreeSpan
	beginVec sim.CategoryVec
}

// TreeBuilder assembles one request's span tree. It is owned by a
// single goroutine (the worker serving the request) and is attached to
// the runtime only for sampled requests; every Begin/End snapshots the
// meter's O(NumCategories) category vector, so a span costs two vector
// reads and one small allocation. A nil *TreeBuilder is a valid no-op
// receiver, which is what keeps the unsampled hook path to one branch.
type TreeBuilder struct {
	meter   *sim.Meter
	t0      time.Time
	stack   []treeFrame
	spans   int
	dropped int
	skip    int
}

// NewTreeBuilderAt opens a builder whose root "request" span starts at
// t0, charging against mt; the tree holds at most DefaultMaxTreeSpans.
// The caller passes the start instant so one clock reading serves both
// the tree and its own wall measurement: the root's Dur and the
// request's Wall agree exactly.
func NewTreeBuilderAt(mt *sim.Meter, t0 time.Time) *TreeBuilder {
	b := &TreeBuilder{meter: mt, t0: t0}
	b.stack = append(b.stack, treeFrame{
		span:     &TreeSpan{Name: "request"},
		beginVec: mt.CategoryCyclesVec(),
	})
	b.spans = 1
	return b
}

// Begin opens a child span of the innermost open span. Past the span
// budget the call is counted as dropped and the matching End becomes a
// no-op, so deep or runaway instrumentation degrades to a counter
// instead of unbounded memory.
func (b *TreeBuilder) Begin(name string) {
	if b == nil {
		return
	}
	if b.skip > 0 || b.spans >= DefaultMaxTreeSpans {
		b.skip++
		b.dropped++
		return
	}
	b.spans++
	b.stack = append(b.stack, treeFrame{
		span:     &TreeSpan{Name: name, Start: time.Since(b.t0)},
		beginVec: b.meter.CategoryCyclesVec(),
	})
}

// End closes the innermost open span, computing its duration and its
// inclusive category cycle delta. Ends without a matching Begin are
// ignored, as is the root span (only Finish closes it).
func (b *TreeBuilder) End() {
	if b == nil {
		return
	}
	if b.skip > 0 {
		b.skip--
		return
	}
	if len(b.stack) <= 1 {
		return // root closes in Finish; unbalanced End is a no-op
	}
	f := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	f.span.Dur = time.Since(b.t0) - f.span.Start
	f.span.Categories = b.meter.CategoryCyclesVec().Sub(f.beginVec)
	f.span.Cycles = f.span.Categories.Total()
	parent := b.stack[len(b.stack)-1].span
	parent.Children = append(parent.Children, f.span)
}

// Finish closes every span still open (innermost first), closes the
// root, and returns the completed tree for worker. The builder must not
// be used afterwards.
func (b *TreeBuilder) Finish(worker int) *Tree {
	if b == nil {
		return nil
	}
	for len(b.stack) > 1 {
		b.End()
	}
	root := b.stack[0]
	root.span.Dur = time.Since(b.t0)
	root.span.Categories = b.meter.CategoryCyclesVec().Sub(root.beginVec)
	root.span.Cycles = root.span.Categories.Total()
	b.stack = nil
	return &Tree{Worker: worker, Start: b.t0, Root: root.span, Dropped: b.dropped}
}

// TreeRing retains the most recent sampled span trees in a bounded ring
// for the /tracez endpoint. Safe for concurrent use.
type TreeRing struct {
	mu    sync.Mutex
	cap   int
	trees []*Tree
	start int
	total int64
}

// NewTreeRing builds a ring keeping at most capacity trees (<=0 selects
// a capacity of 1).
func NewTreeRing(capacity int) *TreeRing {
	if capacity <= 0 {
		capacity = 1
	}
	return &TreeRing{cap: capacity}
}

// Add retains t, evicting the oldest tree when the ring is full. A nil
// tree is ignored.
func (r *TreeRing) Add(t *Tree) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.trees) < r.cap {
		r.trees = append(r.trees, t)
		return
	}
	r.trees[r.start] = t
	r.start = (r.start + 1) % r.cap
}

// Total returns how many trees were ever added, including evicted ones.
func (r *TreeRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns up to n retained trees, oldest first, newest last. n <= 0
// returns every retained tree.
func (r *TreeRing) Last(n int) []*Tree {
	r.mu.Lock()
	defer r.mu.Unlock()
	ordered := make([]*Tree, 0, len(r.trees))
	ordered = append(ordered, r.trees[r.start:]...)
	ordered = append(ordered, r.trees[:r.start]...)
	if n > 0 && n < len(ordered) {
		ordered = ordered[len(ordered)-n:]
	}
	return ordered
}
