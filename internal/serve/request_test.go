package serve

import (
	"bytes"
	"context"
	"math"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestParsePageCanonical is the router/backend agreement table: both
// binaries key a request by PageKey(ParsePage(rawQuery)), so every
// spelling of a page must land on one key and everything else must be
// rejected by both (or be "no page" for both).
func TestParsePageCanonical(t *testing.T) {
	for _, tc := range []struct {
		query string
		page  int // -1: no page named
		bad   bool
	}{
		{"page=7", 7, false},
		{"page=07", 7, false},
		{"page=%2B7", 7, false}, // "+7"
		{"page=-3", 0, true},
		{"page=abc", 0, true},
		{"page=1e3", 0, true},
		{"page=99999999999999999999", 0, true},
		{"page=", -1, false},
		{"", -1, false},
		{"other=1", -1, false},
		{"page=7&page=7", 0, true},
		{"page=7&page=8", 0, true},
		{"page=%zz", 0, true},
		{"x=1&page=4095", 4095, false},
		{"page=4096", 4096, false}, // past the precomputed key table
	} {
		page, err := ParsePage(tc.query)
		if tc.bad {
			if err == nil {
				t.Errorf("ParsePage(%q) = %d, want an error", tc.query, page)
			}
			continue
		}
		if err != nil || page != tc.page {
			t.Errorf("ParsePage(%q) = %d, %v; want %d", tc.query, page, err, tc.page)
		}
	}
	for page, want := range map[int]string{0: "page:0", 7: "page:7", 4095: "page:4095", 4096: "page:4096", 123456: "page:123456"} {
		if got := PageKey(page); got != want {
			t.Errorf("PageKey(%d) = %q, want %q", page, got, want)
		}
	}
}

// FuzzParsePage feeds arbitrary raw queries to ParsePage, and a page
// number to spell as page=<n>. ParsePage must not panic and must answer
// one of three ways — no page (-1, nil), a page (>= 0, nil) or a
// rejection (-1, error) — and the canonical spelling of every page >= 0
// must parse back to that page.
func FuzzParsePage(f *testing.F) {
	for _, q := range []string{"", "page=7", "page=07", "page=%2B7", "page=-3", "page=1e3", "page=", "page=7&page=8", "page=%zz", "x=1&page=4095", "page=99999999999999999999", ";", "page=7;x"} {
		f.Add(q, 7)
	}
	f.Add("page=0", 0)
	f.Add("page=-0", math.MaxInt)
	f.Fuzz(func(t *testing.T, query string, p int) {
		page, err := ParsePage(query)
		switch {
		case err != nil && page != -1:
			t.Fatalf("ParsePage(%q) = %d with error %v; a rejection must return -1", query, page, err)
		case page < -1:
			t.Fatalf("ParsePage(%q) = %d, below -1", query, page)
		}
		if p < 0 {
			return
		}
		if got, err := ParsePage("page=" + strconv.Itoa(p)); got != p || err != nil {
			t.Fatalf("ParsePage(page=%d) = %d, %v; want %d, nil", p, got, err, p)
		}
	})
}

// TestServeCopiesOutBeforeRelease: an uncached body lands in the caller's
// buffer, and stays what the worker rendered after the worker has gone
// on to render something else into its recycled buffers.
func TestServeCopiesOutBeforeRelease(t *testing.T) {
	s := NewScheduler(cachedPool(t, 1), Config{QueueDepth: 2})
	ref := cachedPool(t, 1)
	w := ref.Acquire()
	want3, _, _ := w.ServePageSpanCtx(context.Background(), 3, false)
	want3 = append([]byte(nil), want3...)
	ref.Release(w)

	var first, second []byte
	r1, err := s.Serve(context.Background(), Request{Page: 3}, &first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(context.Background(), Request{Page: 9}, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Body, want3) || !bytes.Equal(first, want3) {
		t.Error("page 3's body changed once the worker rendered page 9")
	}
	if r1.Cache != cache.Bypass || r1.Span.Worker != 0 || r1.Span.Wall <= 0 {
		t.Errorf("uncached response = outcome %v, span %+v", r1.Cache, r1.Span)
	}
}

// TestServeStallHoldsWorkerAndHonoursDeadline: the stall is part of the
// request (the caller's deadline expiring inside it sheds as
// ErrDeadline), and
// a cached request without a page identity is refused rather than
// cached under a key that names no page.
func TestServeStallHoldsWorkerAndHonoursDeadline(t *testing.T) {
	s := NewScheduler(cachedPool(t, 1), Config{QueueDepth: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var buf []byte
	_, err := s.Serve(ctx, Request{Page: 1, Stall: 2 * time.Second}, &buf)
	if err != ErrDeadline || OutcomeOf(err) != OutcomeDeadline {
		t.Errorf("deadline inside the stall: err = %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.ShedDeadline != 1 || st.Served != 0 {
		t.Errorf("stats after the stalled request: %+v", st)
	}
	c := cache.New(cache.Config{Capacity: 4})
	if _, err := s.Serve(context.Background(), Request{Page: -1, Cache: c}, nil); err == nil || c.Stats().Entries != 0 {
		t.Errorf("cached request without a page: err = %v, %d entries cached", err, c.Stats().Entries)
	}
	checkPoolIntact(t, s.pool)
}

// budgetPool is the pool the budget tests of this package measure on:
// one warmed worker rendering accelerated WordPress, every worker on the
// same seed so a page is the same bytes whoever renders it.
func budgetPool(t *testing.T) *workload.Pool {
	t.Helper()
	cfg := vm.Config{Features: isa.AllAccelerators(), Mitigations: sim.AllMitigations(), TraceCapacity: -1}
	pool, err := workload.NewPoolSharedSeed(1, cfg, "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Run(workload.LoadGenerator{Warmup: 40, ContextSwitchEvery: 64}, 0)
	return pool
}

// noGC turns the collector off for the rest of the test, for tests that
// count allocations: a collection empties the sync.Pools mid-run and
// moves a count by one or two in 25,000.
func noGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// sameSimulation fails the test unless the two pools' workers served
// the same number of requests and charged their meters identically since
// their last reset: totals, the category vector and every leaf
// function's row.
func sameSimulation(t *testing.T, what string, gotPool, wantPool *workload.Pool) {
	t.Helper()
	if g, w := served(gotPool), served(wantPool); g != w {
		t.Errorf("%s served %d requests, want %d", what, g, w)
	}
	gm, wm := gotPool.MergedMeter(), wantPool.MergedMeter()
	if gm.TotalCycles() != wm.TotalCycles() || gm.TotalUops() != wm.TotalUops() ||
		gm.TotalEnergy() != wm.TotalEnergy() || gm.CategoryCyclesVec() != wm.CategoryCyclesVec() {
		t.Errorf("%s moved the simulation:\n got  %v cycles, %v uops, %v pJ, %v\n want %v cycles, %v uops, %v pJ, %v", what,
			gm.TotalCycles(), gm.TotalUops(), gm.TotalEnergy(), gm.CategoryCyclesVec(),
			wm.TotalCycles(), wm.TotalUops(), wm.TotalEnergy(), wm.CategoryCyclesVec())
	}
	g, w := gm.Functions(), wm.Functions()
	if len(g) != len(w) {
		t.Fatalf("%s charged %d leaf functions, want %d", what, len(g), len(w))
	}
	for i := range g {
		if *g[i] != *w[i] {
			t.Errorf("%s changed leaf function %d: %+v, want %+v", what, i, *g[i], *w[i])
		}
	}
}

// served is how many requests the pool's workers served since their
// last reset. It waits for every worker to be free.
func served(p *workload.Pool) int {
	ws := make([]*workload.Worker, p.Size())
	n := 0
	for i := range ws {
		ws[i] = p.Acquire()
		n += ws[i].Served()
	}
	for _, w := range ws {
		p.Release(w)
	}
	return n
}

// TestSchedulerServeBudget pins what the lifecycle layer (admission
// slot, deadline bookkeeping, AcquireCtx, queue-wait histogram, the copy
// out) may add to a render, as its causes rather than as a wall-clock
// ratio (that is the benchmark's serve.do_self_us row): the same
// requests through Scheduler.Serve charge the meter exactly what the
// direct Pool.Run loop charges, and allocate no more than it does plus a
// pinned constant.
func TestSchedulerServeBudget(t *testing.T) {
	noGC(t)
	const requests = 600
	directPool, schedPool := budgetPool(t), budgetPool(t)

	// AllocsPerRun makes two runs (one to warm up); both sides begin each
	// from reset workers, so the second run's meters are comparable.
	var direct workload.Result
	directAllocs := testing.AllocsPerRun(1, func() {
		direct = directPool.Run(workload.LoadGenerator{Requests: requests, ContextSwitchEvery: 64}, 0)
	}) / requests

	s := NewScheduler(schedPool, Config{QueueDepth: 64, CtxSwitchEvery: 64})
	var scratch []byte
	var answered int64
	schedAllocs := testing.AllocsPerRun(1, func() {
		schedPool.Run(workload.LoadGenerator{}, 0) // reset meter and switch cadence, as Run does
		answered = 0
		for i := 0; i < requests; i++ {
			resp, err := s.Serve(context.Background(), Request{Page: -1}, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			answered += int64(len(resp.Body))
		}
	}) / requests
	sameSimulation(t, "Scheduler.Serve", schedPool, directPool)
	if answered != direct.ResponseBytes {
		t.Errorf("Scheduler.Serve answered %d bytes, the direct loop %d", answered, direct.ResponseBytes)
	}
	if st := s.Stats(); st.Served != 2*requests || st.Admitted != 2*requests || st.Shed() != 0 {
		t.Errorf("scheduler stats %+v, want %d admitted and served, none shed", st, 2*requests)
	}

	// Measured 39.46 allocs/request direct and 39.41 through Serve. The pinned
	// constant of 0.5 fails on one allocation per request added to the
	// lifecycle layer.
	const surcharge = 0.5
	t.Logf("allocs/request: direct %.2f, through Scheduler.Serve %.2f", directAllocs, schedAllocs)
	if schedAllocs > directAllocs+surcharge {
		t.Errorf("Scheduler.Serve allocates %.2f times/request, direct loop %.2f: over the +%.1f budget",
			schedAllocs, directAllocs, surcharge)
	}
}
