package obs

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// vec builds a CategoryVec with the given cycles in CatVM.
func vec(cycles float64) sim.CategoryVec {
	var v sim.CategoryVec
	v[sim.CatHash] = cycles
	return v
}

// routerTree builds the host side of a stitch: a hand-assembled router
// tree (no sim.Meter exists in a router process) with zero cycles.
func routerTree(start time.Time) *Tree {
	proxy := &TreeSpan{Name: "proxy:b0", Start: 1 * time.Millisecond, Dur: 10 * time.Millisecond}
	route := &TreeSpan{Name: "route", Start: 0, Dur: 1 * time.Millisecond}
	root := &TreeSpan{Name: "request", Dur: 12 * time.Millisecond,
		Children: []*TreeSpan{route, proxy}}
	return &Tree{ID: "rid-1", Start: start, Root: root}
}

// backendTree builds the sub side: a backend render tree carrying
// simulated cycles, as phpserve's TreeBuilder would produce.
func backendTree(start time.Time) *Tree {
	render := &TreeSpan{Name: "render", Start: 100 * time.Microsecond,
		Dur: 8 * time.Millisecond, Cycles: 900, Categories: vec(900)}
	root := &TreeSpan{Name: "request", Dur: 9 * time.Millisecond,
		Cycles: 1000, Categories: vec(1000), Children: []*TreeSpan{render}}
	return &Tree{ID: "rid-1", Start: start, Root: root, Dropped: 2}
}

// checkTelescope verifies the stitched tree's self-cycles invariant: the
// sum of every span's exclusive vector equals the root's inclusive one.
func checkTelescope(t *testing.T, tree *Tree) {
	t.Helper()
	var selfSum sim.CategoryVec
	tree.Root.Walk(func(sp *TreeSpan, _ int) {
		selfSum = selfSum.Add(sp.selfCategories())
	})
	if got, want := selfSum.Total(), tree.Root.Categories.Total(); got != want {
		t.Fatalf("telescoping broken: self sum %g != root inclusive %g", got, want)
	}
	tree.Root.Walk(func(sp *TreeSpan, _ int) {
		if sp.SelfCycles() < 0 {
			t.Fatalf("span %q has negative self cycles %g", sp.Name, sp.SelfCycles())
		}
	})
}

func TestGraftStitchesAndPreservesInvariant(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	host := routerTree(t0)
	sub := backendTree(t0.Add(2 * time.Millisecond))

	chain := FindSpan(host, "proxy:b0")
	if len(chain) != 2 || chain[0].Name != "request" || chain[1].Name != "proxy:b0" {
		t.Fatalf("FindSpan chain = %v", spanNames(chain))
	}
	Graft(host, chain, sub)

	proxy := chain[1]
	if len(proxy.Children) != 1 || proxy.Children[0].Name != "request" {
		t.Fatalf("backend root not attached under proxy: %v", spanNames(proxy.Children))
	}
	// Backend started 2ms after the router's request: its spans are
	// rebased onto the host clock.
	if got := proxy.Children[0].Start; got != 2*time.Millisecond {
		t.Fatalf("backend root start = %v, want 2ms", got)
	}
	if got := proxy.Children[0].Children[0].Start; got != 2*time.Millisecond+100*time.Microsecond {
		t.Fatalf("backend render start = %v", got)
	}
	// The backend's inclusive cycles propagated up both ancestors, so the
	// router spans (zero own cycles) telescope to zero self.
	if host.Root.Cycles != 1000 || proxy.Cycles != 1000 {
		t.Fatalf("ancestor cycles = root %g proxy %g, want 1000/1000", host.Root.Cycles, proxy.Cycles)
	}
	if host.Root.SelfCycles() != 0 || proxy.SelfCycles() != 0 {
		t.Fatalf("router self cycles = root %g proxy %g, want 0/0",
			host.Root.SelfCycles(), proxy.SelfCycles())
	}
	if host.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", host.Dropped)
	}
	checkTelescope(t, host)
}

func TestGraftClampsClockSkew(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	host := routerTree(t0)
	// Backend clock reads *before* the router's request start: without
	// clamping the backend render would appear to begin before the proxy
	// call that caused it.
	sub := backendTree(t0.Add(-5 * time.Millisecond))
	chain := FindSpan(host, "proxy:b0")
	Graft(host, chain, sub)
	if got, want := chain[1].Children[0].Start, chain[1].Start; got != want {
		t.Fatalf("skewed backend root start = %v, want clamped to proxy start %v", got, want)
	}
	checkTelescope(t, host)
}

func TestGraftNilSafe(t *testing.T) {
	host := routerTree(time.Now())
	Graft(nil, FindSpan(host, "proxy:b0"), backendTree(time.Now()))
	Graft(host, nil, backendTree(time.Now()))
	Graft(host, FindSpan(host, "proxy:b0"), nil)
	if len(FindSpan(host, "proxy:b0")[1].Children) != 0 {
		t.Fatal("nil-argument Graft mutated the host tree")
	}
}

func TestFindSpanMissing(t *testing.T) {
	host := routerTree(time.Now())
	if got := FindSpan(host, "nope"); got != nil {
		t.Fatalf("FindSpan(nope) = %v", spanNames(got))
	}
	if got := FindSpan(nil, "request"); got != nil {
		t.Fatal("FindSpan(nil) should be nil")
	}
}

func spanNames(spans []*TreeSpan) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
