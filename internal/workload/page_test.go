package workload

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
)

// pageApps is every built-in workload name; all must have page identity.
var pageApps = []string{
	"wordpress", "drupal", "mediawiki", "laravel", "symfony",
	"specweb-banking", "specweb-ecommerce", "phpscript-blog",
}

func TestEveryAppImplementsPageApp(t *testing.T) {
	for _, name := range pageApps {
		app, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if _, ok := app.(PageApp); !ok {
			t.Errorf("%s does not implement PageApp", name)
		}
	}
}

// TestServePageMatchesServeRequest is the page-identity contract: the
// n-th ServeRequest and ServePage(n) on an identically seeded app must
// produce the same bytes, so a cache keyed on page index returns exactly
// what a fresh render would.
func TestServePageMatchesServeRequest(t *testing.T) {
	for _, name := range pageApps {
		seqApp, err := ByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		pageApp, err := ByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		seqRT := vm.New(vm.Config{})
		pageRT := vm.New(vm.Config{})
		pa := pageApp.(PageApp)
		for n := 1; n <= 4; n++ {
			seq := seqApp.ServeRequest(seqRT)
			byPage := pa.ServePage(pageRT, n)
			if !bytes.Equal(seq, byPage) {
				t.Errorf("%s request %d: ServeRequest and ServePage differ (%d vs %d bytes)",
					name, n, len(seq), len(byPage))
				break
			}
		}
	}
}

// TestServePageDeterministicAcrossWorkers checks the shared-seed pool
// premise: two independently constructed app instances with the same
// seed render identical bytes for the same page, with accelerators on
// and off.
func TestServePageDeterministicAcrossWorkers(t *testing.T) {
	configs := map[string]vm.Config{
		"baseline":    {},
		"accelerated": {Mitigations: sim.AllMitigations(), Features: isa.AllAccelerators()},
	}
	for cfgName, cfg := range configs {
		a1, _ := ByName("wordpress", 7)
		a2, _ := ByName("wordpress", 7)
		rt1, rt2 := vm.New(cfg), vm.New(cfg)
		for _, page := range []int{1, 3, 120, 7} {
			b1 := a1.(PageApp).ServePage(rt1, page)
			b2 := a2.(PageApp).ServePage(rt2, page)
			if !bytes.Equal(b1, b2) {
				t.Errorf("%s page %d: same-seed workers render different bytes", cfgName, page)
			}
		}
	}
}

func TestSharedSeedPool(t *testing.T) {
	p, err := NewPoolSharedSeed(2, vm.Config{}, "wordpress", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SupportsPages() {
		t.Fatal("wordpress pool must support pages")
	}
	w1 := p.Acquire()
	b1, _, err := w1.ServePageSpanCtx(context.Background(), 9, false)
	p.Release(w1)
	if err != nil {
		t.Fatal(err)
	}
	w2 := p.Acquire()
	var b2 []byte
	for w2 == w1 { // make sure a different worker renders the same page
		p.Release(w2)
		w2 = p.Acquire()
	}
	b2, _, err = w2.ServePageSpanCtx(context.Background(), 9, false)
	p.Release(w2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("shared-seed workers rendered different bytes for the same page")
	}
}

// TestProfiledWallMatchesTreeDur is the clock-alignment regression test:
// the tree root's Dur must equal the span's Wall (it used to exceed it
// because the tree clock started before the wall clock).
func TestProfiledWallMatchesTreeDur(t *testing.T) {
	p, err := NewPool(1, vm.Config{}, "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Acquire()
	defer p.Release(w)
	for i := 0; i < 5; i++ {
		_, sp, _ := w.ServePageSpanCtx(context.Background(), -1, true)
		if !sp.Sampled || sp.Tree == nil {
			t.Fatal("profiled serve must carry a tree")
		}
		if sp.Tree.Root.Dur != sp.Wall {
			t.Fatalf("request %d: tree root Dur %v != span Wall %v", i, sp.Tree.Root.Dur, sp.Wall)
		}
		// Children still nest within the root interval.
		for _, c := range sp.Tree.Root.Children {
			if c.Start+c.Dur > sp.Wall+sp.Wall/10 {
				t.Errorf("child %s [%v +%v] extends past wall %v", c.Name, c.Start, c.Dur, sp.Wall)
			}
		}
	}
}

func TestZipfKeysDeterministicAndSkewed(t *testing.T) {
	z1, err := NewZipfKeys(3, 1.0, 256) // s = 1.0: unsupported by math/rand's Zipf
	if err != nil {
		t.Fatal(err)
	}
	z2, _ := NewZipfKeys(3, 1.0, 256)
	const draws = 20000
	counts := make([]int, 256)
	for i := 0; i < draws; i++ {
		a, b := z1.Next(), z2.Next()
		if a != b {
			t.Fatalf("draw %d: same-seed samplers disagree (%d vs %d)", i, a, b)
		}
		if a < 0 || a >= 256 {
			t.Fatalf("draw out of range: %d", a)
		}
		counts[a]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[4] {
		t.Errorf("popularity not monotone: top counts %v", counts[:6])
	}
	// Under Zipf(1.0, 256) the head of the distribution carries most
	// draws; the top-32 analytic share is ~66%, so the empirical share
	// over 20k draws lands near it.
	var top32 int
	for _, c := range counts[:32] {
		top32 += c
	}
	got := float64(top32) / draws
	want := z1.cdf[31] // the analytic share of the 32 most popular pages
	if math.Abs(got-want) > 0.03 {
		t.Errorf("top-32 share = %.3f, analytic %.3f", got, want)
	}
	if want < 0.6 {
		t.Errorf("Zipf(1.0) top-32 analytic share = %.3f, expected skew >= 0.6", want)
	}
}

func TestZipfKeysRejectsBadParams(t *testing.T) {
	if _, err := NewZipfKeys(1, 1.0, 0); err == nil {
		t.Error("zero pages must error")
	}
	if _, err := NewZipfKeys(1, 0, 10); err == nil {
		t.Error("zero exponent must error")
	}
	if _, err := NewZipfKeys(1, -2, 10); err == nil {
		t.Error("negative exponent must error")
	}
}

// TestZipfKeysPickBoundaries pins the inverse-CDF lookup at its exact
// boundary values: a draw landing precisely on a CDF step belongs to
// that step's rank (SearchFloat64s finds the first cdf >= u), u = 0
// maps to the most popular page, and draws at or arbitrarily close to 1
// stay in range because the tail is pinned to exactly 1.
func TestZipfKeysPickBoundaries(t *testing.T) {
	z, err := NewZipfKeys(1, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.pick(0); got != 0 {
		t.Errorf("pick(0) = %d, want rank 0", got)
	}
	for k := 0; k < 4; k++ {
		// Exactly on the step: the step's own rank.
		if got := z.pick(z.cdf[k]); got != k {
			t.Errorf("pick(cdf[%d]=%v) = %d, want %d", k, z.cdf[k], got, k)
		}
		// Just above the step: the next rank (except past the pinned tail).
		if k < 3 {
			u := math.Nextafter(z.cdf[k], 2)
			if got := z.pick(u); got != k+1 {
				t.Errorf("pick(just above cdf[%d]) = %d, want %d", k, got, k+1)
			}
		}
	}
	if z.cdf[3] != 1 {
		t.Fatalf("tail not pinned: cdf[3] = %v", z.cdf[3])
	}
	if got := z.pick(math.Nextafter(1, 0)); got != 3 {
		t.Errorf("pick(1-ulp) = %d, want last rank 3", got)
	}
	if got := z.pick(1); got != 3 {
		t.Errorf("pick(1) = %d, want last rank 3", got)
	}

	// Degenerate one-page set: every draw is page 0.
	one, err := NewZipfKeys(1, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0, 0.5, math.Nextafter(1, 0), 1} {
		if got := one.pick(u); got != 0 {
			t.Errorf("one-page pick(%v) = %d, want 0", u, got)
		}
	}
	if got := one.Next(); got != 0 {
		t.Errorf("one-page Next() = %d, want 0", got)
	}
}
