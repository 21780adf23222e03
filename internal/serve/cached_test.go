package serve

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func cachedPool(t *testing.T, workers int) *workload.Pool {
	t.Helper()
	p, err := workload.NewPoolSharedSeed(workers, vm.Config{}, "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func renderPage(page int) func(w *workload.Worker) ([]byte, error) {
	return func(w *workload.Worker) ([]byte, error) {
		body, _, err := w.ServePageSpanCtx(context.Background(), page, false)
		return body, err
	}
}

func TestDoCachedHitMissAndEquivalence(t *testing.T) {
	pool := cachedPool(t, 1)
	s := NewScheduler(pool, Config{QueueDepth: 4})
	c := cache.New(cache.Config{Capacity: 16})
	ctx := context.Background()

	b1, out, _, err := s.DoCached(ctx, c, "page:3", renderPage(3))
	if err != nil || out != cache.Miss {
		t.Fatalf("first = %v, %v; want Miss, nil", out, err)
	}
	b2, out, wait, err := s.DoCached(ctx, c, "page:3", renderPage(3))
	if err != nil || out != cache.Hit {
		t.Fatalf("second = %v, %v; want Hit, nil", out, err)
	}
	if wait != 0 {
		t.Errorf("hit reported queue wait %v, want 0 (never queued)", wait)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("hit returned different bytes than the original render")
	}
	st := s.Stats()
	if st.Served != 2 || st.Admitted != 2 {
		t.Errorf("scheduler stats = %+v, want 2 admitted, 2 served", st)
	}
}

// TestDoCachedHitNeedsNoWorker is the tentpole property: a cache hit is
// served while every pool worker is busy.
func TestDoCachedHitNeedsNoWorker(t *testing.T) {
	pool := cachedPool(t, 1)
	s := NewScheduler(pool, Config{QueueDepth: 4})
	c := cache.New(cache.Config{Capacity: 16})
	ctx := context.Background()

	if _, _, _, err := s.DoCached(ctx, c, "page:1", renderPage(1)); err != nil {
		t.Fatal(err)
	}
	// Hold the only worker so no render can possibly run.
	w := pool.Acquire()
	defer pool.Release(w)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, out, _, err := s.DoCached(ctx, c, "page:1", renderPage(1))
		if err != nil || out != cache.Hit {
			t.Errorf("hit with busy pool = %v, %v; want Hit, nil", out, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cache hit blocked on worker acquisition")
	}
}

func TestDoCachedCoalesces(t *testing.T) {
	pool := cachedPool(t, 2)
	s := NewScheduler(pool, Config{QueueDepth: 8})
	c := cache.New(cache.Config{Capacity: 16})
	ctx := context.Background()

	const callers = 6
	var renders int
	var renderMu sync.Mutex
	gate := make(chan struct{})
	leaderIn := make(chan struct{}, 1)

	render := func(w *workload.Worker) ([]byte, error) {
		renderMu.Lock()
		renders++
		renderMu.Unlock()
		leaderIn <- struct{}{}
		<-gate // hold the render open so the others must coalesce
		body, _, err := w.ServePageSpanCtx(ctx, 5, false)
		return body, err
	}

	var wg sync.WaitGroup
	outcomes := make([]cache.Outcome, callers)
	errs := make([]error, callers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, outcomes[0], _, errs[0] = s.DoCached(ctx, c, "page:5", render)
	}()
	<-leaderIn
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outcomes[i], _, errs[i] = s.DoCached(ctx, c, "page:5", render)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if renders != 1 {
		t.Fatalf("render ran %d times for one key, want 1", renders)
	}
	var coalesced int
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if outcomes[i] == cache.Coalesced {
			coalesced++
		}
	}
	if coalesced != callers-1 {
		t.Errorf("coalesced callers = %d, want %d", coalesced, callers-1)
	}
	if st := s.Stats(); st.Served != callers {
		t.Errorf("served = %d, want %d", st.Served, callers)
	}
}

// TestDoCachedHitMatchesFreshRender is the semantics-preservation
// property: for every page, the bytes a cache hit returns through the
// full DoCached path are identical to what a never-cached render of the
// same page produces — with the accelerated datapaths both off and on
// (a cached response must not depend on which core config or worker
// rendered it, only on the page identity).
func TestDoCachedHitMatchesFreshRender(t *testing.T) {
	configs := map[string]vm.Config{
		"baseline":    {},
		"accelerated": {Mitigations: sim.AllMitigations(), Features: isa.AllAccelerators()},
	}
	pages := []int{1, 4, 33, 4, 1} // repeats exercise the hit path
	for name, cfg := range configs {
		pool, err := workload.NewPoolSharedSeed(2, cfg, "wordpress", 9)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(pool, Config{QueueDepth: 8})
		c := cache.New(cache.Config{Capacity: 64})
		// The reference pool renders every page fresh, never cached.
		fresh, err := workload.NewPoolSharedSeed(1, cfg, "wordpress", 9)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, page := range pages {
			got, out, _, err := s.DoCached(context.Background(), c, "page:"+strconv.Itoa(page), renderPage(page))
			if err != nil {
				t.Fatalf("%s page %d: %v", name, page, err)
			}
			if seen[page] && out != cache.Hit {
				t.Errorf("%s page %d: repeat lookup was %v, want Hit", name, page, out)
			}
			seen[page] = true
			fw := fresh.Acquire()
			want, _, err := fw.ServePageSpanCtx(context.Background(), page, false)
			fresh.Release(fw)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s page %d (%v): cached bytes differ from a fresh render (%d vs %d bytes)",
					name, page, out, len(got), len(want))
			}
		}
	}
}

func TestDoCachedShedsWhileDraining(t *testing.T) {
	pool := cachedPool(t, 1)
	s := NewScheduler(pool, Config{})
	c := cache.New(cache.Config{Capacity: 4})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, out, _, err := s.DoCached(context.Background(), c, "page:1", renderPage(1))
	if !errors.Is(err, ErrDraining) || out != cache.Bypass {
		t.Errorf("draining DoCached = %v, %v; want Bypass, ErrDraining", out, err)
	}
}

func TestDoCachedDeadlineMapsToErrDeadline(t *testing.T) {
	pool := cachedPool(t, 1)
	s := NewScheduler(pool, Config{QueueDepth: 2})
	c := cache.New(cache.Config{Capacity: 4})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, _, err := s.DoCached(ctx, c, "page:1", renderPage(1))
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("expired-context DoCached error = %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.ShedDeadline != 1 {
		t.Errorf("shedDeadline = %d, want 1", st.ShedDeadline)
	}
}

// TestDoCachedCanceledMapsToErrCanceled pins the cached path's half of
// the canceled/deadline split: an abandoned request sheds as
// ErrCanceled and bumps only the canceled counter.
func TestDoCachedCanceledMapsToErrCanceled(t *testing.T) {
	pool := cachedPool(t, 1)
	s := NewScheduler(pool, Config{QueueDepth: 2})
	c := cache.New(cache.Config{Capacity: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := s.DoCached(ctx, c, "page:1", renderPage(1))
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled-context DoCached error = %v, want ErrCanceled", err)
	}
	if st := s.Stats(); st.ShedCanceled != 1 || st.ShedDeadline != 0 {
		t.Errorf("sheds = canceled %d, deadline %d; want 1, 0", st.ShedCanceled, st.ShedDeadline)
	}
}

// TestDoCachedEntryStableAcrossRecycle is the aliasing regression test
// for the pooled render path: the render buffer a worker hands back is
// recycled on the very next request through that worker, so the cache
// entry must be a stable copy taken before the worker is released.
// Render unrelated pages through the same single worker (forcing buffer
// reuse), scribble over a previously returned body, then re-read its
// key — the stored entry must be byte-for-byte the original render.
// Run under -race this also catches any write to a recycled buffer
// racing a concurrent hit reader.
func TestDoCachedEntryStableAcrossRecycle(t *testing.T) {
	pool := cachedPool(t, 1)
	s := NewScheduler(pool, Config{QueueDepth: 4})
	c := cache.New(cache.Config{Capacity: 16})
	ctx := context.Background()

	// Capture the raw render output — the worker-owned, recycled slice —
	// alongside what DoCached stores.
	var raw []byte
	captureRender := func(w *workload.Worker) ([]byte, error) {
		body, _, err := w.ServePageSpanCtx(ctx, 7, false)
		raw = body
		return body, err
	}

	first, out, _, err := s.DoCached(ctx, c, "page:7", captureRender)
	if err != nil || out != cache.Miss {
		t.Fatalf("first lookup = %v, %v; want Miss, nil", out, err)
	}
	want := append([]byte(nil), first...)

	// Drive other pages through the same (only) worker so its recycled
	// output buffer and arena are reused for different content. If the
	// cache entry aliased the worker's buffers these renders would
	// overwrite it in place.
	for p := 8; p < 12; p++ {
		if _, _, _, err := s.DoCached(ctx, c, "page:"+strconv.Itoa(p), renderPage(p)); err != nil {
			t.Fatal(err)
		}
	}

	// Mutate the raw render buffer itself — the slice the fill closure
	// saw before copying, now recycled — and confirm the stored entry is
	// untouched. This is the direct regression for the pre-copy bug,
	// where the entry aliased exactly these bytes.
	if raw != nil {
		for i := range raw {
			raw[i] = 'X'
		}
	}

	hit, out, _, err := s.DoCached(ctx, c, "page:7", renderPage(7))
	if err != nil || out != cache.Hit {
		t.Fatalf("re-read = %v, %v; want Hit, nil", out, err)
	}
	if !bytes.Equal(hit, want) {
		t.Fatal("cache entry changed after the worker's render buffer was recycled and scribbled on")
	}
}

func TestRunLoadCachedZipf(t *testing.T) {
	pool := cachedPool(t, 2)
	s := NewScheduler(pool, Config{QueueDepth: 16})
	c := cache.New(cache.Config{Capacity: 256})
	keys, err := workload.NewZipfKeys(11, 1.0, 64)
	if err != nil {
		t.Fatal(err)
	}
	ls := RunLoad(context.Background(), s, LoadOptions{
		Requests: 300,
		Clients:  2,
		Cache:    c,
		PageKey:  keys.Next,
	})
	if ls.Served != 300 {
		t.Fatalf("served = %d/%d (shed %d)", ls.Served, ls.Submitted, ls.Shed())
	}
	if got := ls.CacheHits + ls.CacheMisses + ls.CacheCoalesced; got != 300 {
		t.Fatalf("outcome partition sums to %d, want 300", got)
	}
	// 64 Zipf(1.0) pages into an uncapped cache: at most 64 misses, so
	// the hit ratio is at least (300-64)/300 ≈ 0.78 minus coalescing.
	if ls.CacheHits < 200 {
		t.Errorf("hits = %d over 300 zipf requests across 64 pages, expected >= 200", ls.CacheHits)
	}
	if ls.HitLatency.P50 <= 0 || ls.MissLatency.P50 <= 0 {
		t.Errorf("latency split missing: hit p50 %v, miss p50 %v", ls.HitLatency.P50, ls.MissLatency.P50)
	}
	if ls.HitLatency.P50 >= ls.MissLatency.P50 {
		t.Errorf("hit p50 %v not below miss p50 %v", ls.HitLatency.P50, ls.MissLatency.P50)
	}
	cs := c.Stats()
	if int(cs.Hits) != ls.CacheHits || int(cs.Misses) != ls.CacheMisses {
		t.Errorf("cache stats (%d hits, %d misses) disagree with load stats (%d, %d)",
			cs.Hits, cs.Misses, ls.CacheHits, ls.CacheMisses)
	}
}

// TestCacheMissPathBudget pins the response cache's worst case — every
// lookup misses, so every request pays the shard lock, the flight
// bookkeeping and the insert and is never saved a render — as its causes
// rather than as a wall-clock ratio (those are the benchmark's
// cache.getorfill_fill_ns and _hit_ns rows): an all-miss cached load is
// the same paged load uncached plus exactly one lookup charge and one
// stored entry per miss, within a pinned allocation surcharge.
func TestCacheMissPathBudget(t *testing.T) {
	noGC(t)
	const requests = 600
	run := func(c *cache.Cache) (*workload.Pool, LoadStats, float64) {
		pool := budgetPool(t)
		s := NewScheduler(pool, Config{QueueDepth: 64, CtxSwitchEvery: 64})
		var ls LoadStats
		page := 0
		// AllocsPerRun makes two runs (one to warm up): pages 1..600,
		// then 601..1200 from reset workers, every one a first sight.
		allocs := testing.AllocsPerRun(1, func() {
			pool.Run(workload.LoadGenerator{}, 0) // reset meter and switch cadence
			ls = RunLoad(context.Background(), s, LoadOptions{
				Requests: requests,
				Clients:  1,
				Cache:    c,
				PageKey:  func() int { page++; return page },
			})
		}) / requests
		if ls.Served != requests {
			t.Fatalf("served %d/%d", ls.Served, requests)
		}
		return pool, ls, allocs
	}
	plainPool, _, plainAllocs := run(nil)
	c := cache.New(cache.Config{Capacity: 4 * requests})
	missPool, ls, cachedAllocs := run(c)

	if ls.CacheMisses != requests || ls.CacheHits != 0 || ls.CacheCoalesced != 0 {
		t.Errorf("cached run: %d misses, %d hits, %d coalesced, want all %d to miss",
			ls.CacheMisses, ls.CacheHits, ls.CacheCoalesced, requests)
	}
	if st := c.Stats(); st.Misses != 2*requests || st.Entries != 2*requests || st.Lookups() != 2*requests || st.Evictions != 0 {
		t.Errorf("cache stats %+v, want %d misses each leaving one entry", st, 2*requests)
	}
	sameSimulation(t, "the cache's miss path", missPool, plainPool)
	lookups := sim.NewMeter(sim.DefaultCostModel())
	c.MergeMeter(lookups)
	fns := lookups.Functions()
	if len(fns) != 1 || fns[0].Name != cache.LookupFn || fns[0].Calls != 2*requests ||
		fns[0].Uops != 2*requests*cache.DefaultLookupUops {
		t.Errorf("cache meter holds %d rows, %v uops; want the one %s row charged once per miss (%d calls, %d uops)",
			len(fns), lookups.TotalUops(), cache.LookupFn, 2*requests, 2*requests*cache.DefaultLookupUops)
	}

	// Measured 39.38 allocs/request uncached and 44.44 all-miss cached: +5.06,
	// the stable copy of the body, the flight and its channel, the entry
	// and its list element, and the amortised growth of the shard maps.
	// The budget of +5.5 fails on one more allocation per miss.
	const surcharge = 5.5
	t.Logf("allocs/request: uncached paged load %.2f, all-miss cached %.2f (+%.2f)", plainAllocs, cachedAllocs, cachedAllocs-plainAllocs)
	if cachedAllocs > plainAllocs+surcharge {
		t.Errorf("all-miss cached load allocates %.2f times/request, uncached %.2f: over the +%.1f budget",
			cachedAllocs, plainAllocs, surcharge)
	}
}
