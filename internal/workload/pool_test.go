package workload

import (
	"context"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

func swConfig() vm.Config {
	return vm.Config{Mitigations: sim.AllMitigations()}
}

func hwConfig() vm.Config {
	return vm.Config{Features: isa.AllAccelerators(), Mitigations: sim.AllMitigations()}
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0, swConfig(), "wordpress", 1); err == nil {
		t.Errorf("0 workers should error")
	}
	if _, err := NewPool(2, swConfig(), "rails", 1); err == nil {
		t.Errorf("unknown app should error")
	}
	p, err := NewPool(3, swConfig(), "wordpress", 1)
	if err != nil || p.Size() != 3 {
		t.Fatalf("NewPool = %v, %v", p, err)
	}
}

// TestPoolRunFourWorkers is the acceptance test: a pool with >= 4 workers
// serving concurrently (run under -race), producing a merged fleet result
// with sane latency percentiles and throughput.
func TestPoolRunFourWorkers(t *testing.T) {
	p, err := NewPool(4, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	lg := LoadGenerator{Warmup: 6, Requests: 24, ContextSwitchEvery: 8}
	res := p.Run(lg, 0)
	if res.Requests != 24 || res.Workers != 4 {
		t.Fatalf("fleet result header wrong: %+v", res)
	}
	if res.Cycles <= 0 || res.Uops <= 0 || res.ResponseBytes <= 0 {
		t.Errorf("no measured work: %+v", res)
	}
	if res.Keys.TotalKeys == 0 {
		t.Errorf("merged trace produced no key stats")
	}
	l := res.Latency
	if l.Count != 24 {
		t.Errorf("latency count %d, want 24", l.Count)
	}
	if l.P50 <= 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
		t.Errorf("percentiles out of order: %+v", l)
	}
	if res.Wall <= 0 || res.Throughput() <= 0 {
		t.Errorf("throughput not measured: wall=%v", res.Wall)
	}
}

// TestPoolDeterministicMetrics: the static request partition plus
// per-worker seeds make the simulated metrics independent of goroutine
// scheduling.
func TestPoolDeterministicMetrics(t *testing.T) {
	run := func(concurrency int) Result {
		p, err := NewPool(4, hwConfig(), "mediawiki", 3)
		if err != nil {
			t.Fatal(err)
		}
		return p.Run(LoadGenerator{Warmup: 4, Requests: 18, ContextSwitchEvery: 8}, concurrency)
	}
	// TotalCycles sums a map in randomized iteration order, so allow
	// float-summation jitter at the ulp scale; real nondeterminism (e.g.
	// scheduling-dependent map IDs) shows up orders of magnitude larger.
	same := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	a, b, c := run(0), run(0), run(2)
	if !same(a.Cycles, b.Cycles) || !same(a.Uops, b.Uops) || !same(a.EnergyPJ, b.EnergyPJ) {
		t.Errorf("pool metrics not deterministic: %v vs %v cycles", a.Cycles, b.Cycles)
	}
	if a.ResponseBytes != b.ResponseBytes {
		t.Errorf("response bytes not deterministic")
	}
	// Bounding concurrency changes scheduling but not the simulated work.
	if !same(a.Cycles, c.Cycles) {
		t.Errorf("concurrency bound changed simulated cycles: %v vs %v", a.Cycles, c.Cycles)
	}
}

// TestPoolRatiosMatchSerial: per-config normalized cycle ratios from a
// 4-worker pool must match the serial run within noise (the workers see
// slightly different request streams via their per-worker seeds).
func TestPoolRatiosMatchSerial(t *testing.T) {
	lg := LoadGenerator{Warmup: 20, Requests: 40, ContextSwitchEvery: 32}

	serialRatio := func(name string) float64 {
		base, _ := ByName(name, 4)
		accel, _ := ByName(name, 4)
		sw := lg.Run(vm.New(swConfig()), base)
		hw := lg.Run(vm.New(hwConfig()), accel)
		return hw.Cycles / sw.Cycles
	}
	poolRatio := func(name string) float64 {
		swPool, err := NewPool(4, swConfig(), name, 4)
		if err != nil {
			t.Fatal(err)
		}
		hwPool, err := NewPool(4, hwConfig(), name, 4)
		if err != nil {
			t.Fatal(err)
		}
		sw := swPool.Run(lg, 0)
		hw := hwPool.Run(lg, 0)
		return hw.Cycles / sw.Cycles
	}

	for _, name := range []string{"wordpress", "drupal"} {
		s, p := serialRatio(name), poolRatio(name)
		if s <= 0 || p <= 0 {
			t.Fatalf("%s: degenerate ratios serial=%v pool=%v", name, s, p)
		}
		if diff := p/s - 1; diff > 0.10 || diff < -0.10 {
			t.Errorf("%s: pool accel ratio %0.4f vs serial %0.4f (off by %0.1f%%)",
				name, p, s, 100*diff)
		}
	}
}

// TestPoolAcquireReleaseConcurrent exercises the phpserve dispatch path:
// many goroutines competing for workers, each serving requests on
// whichever worker is free.
func TestPoolAcquireReleaseConcurrent(t *testing.T) {
	p, err := NewPool(4, swConfig(), "drupal", 2)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				w := p.Acquire()
				if page := w.ServeOne(); len(page) == 0 {
					t.Error("empty page from pool worker")
				}
				p.Release(w)
			}
		}()
	}
	wg.Wait()
	mt := p.MergedMeter()
	if mt.TotalCycles() <= 0 {
		t.Errorf("merged meter empty after concurrent serving")
	}
	total := 0
	p.acquireAll()
	for _, w := range p.workers {
		total += w.Served()
	}
	p.releaseAll()
	if total != clients*perClient {
		t.Errorf("served %d requests, want %d", total, clients*perClient)
	}
}

func TestPoolMoreWorkersThanRequests(t *testing.T) {
	p, err := NewPool(6, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run(LoadGenerator{Warmup: 1, Requests: 3}, 0)
	if res.Requests != 3 {
		t.Errorf("served %d, want 3", res.Requests)
	}
	if res.Latency.Count != 3 {
		t.Errorf("latency count %d, want 3", res.Latency.Count)
	}
}

func TestLatencyStatsPercentiles(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	l := LatencyStatsFrom(d)
	if l.Count != 100 {
		t.Errorf("count %d", l.Count)
	}
	if l.P50 != 50*time.Millisecond || l.P95 != 95*time.Millisecond || l.P99 != 99*time.Millisecond {
		t.Errorf("percentiles wrong: p50=%v p95=%v p99=%v", l.P50, l.P95, l.P99)
	}
	if l.Max != 100*time.Millisecond {
		t.Errorf("max %v", l.Max)
	}
	if l.Mean != 50500*time.Microsecond {
		t.Errorf("mean %v", l.Mean)
	}
	if z := LatencyStatsFrom(nil); z.Count != 0 || z.P99 != 0 {
		t.Errorf("empty input should zero out: %+v", z)
	}
}

func TestThroughputGuardsZeroWall(t *testing.T) {
	if r := (Result{Requests: 10}); r.Throughput() != 0 {
		t.Errorf("zero wall must not divide: %v", r.Throughput())
	}
	if r := (Result{}); r.CyclesPerRequest() != 0 {
		t.Errorf("zero requests must not divide")
	}
}

// TestServeOneProfiledSpan: a profiled next-request render must attribute the
// request's cycles to the paper's categories, and the breakdown must sum
// to the request's total cycle delta.
func TestServeOneProfiledSpan(t *testing.T) {
	p, err := NewPool(1, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Acquire()
	defer p.Release(w)
	w.ServeOne() // warm metadata caches so the span sees steady state

	before := w.Runtime().Meter().TotalCycles()
	page, sp, _ := w.ServePageSpanCtx(context.Background(), -1, true)
	after := w.Runtime().Meter().TotalCycles()
	if len(page) == 0 {
		t.Fatal("empty page")
	}
	if !sp.Sampled || sp.Worker != 0 || sp.Wall <= 0 {
		t.Errorf("span header wrong: %+v", sp)
	}
	delta := after - before
	if math.Abs(sp.Cycles-delta) > 1e-6*delta {
		t.Errorf("span cycles %v != meter delta %v", sp.Cycles, delta)
	}
	if math.Abs(sp.Categories.Total()-sp.Cycles) > 1e-9*sp.Cycles {
		t.Errorf("breakdown sum %v != total %v", sp.Categories.Total(), sp.Cycles)
	}
	for _, c := range []sim.Category{sim.CatHash, sim.CatHeap, sim.CatString, sim.CatRegex} {
		if sp.Categories[c] <= 0 {
			t.Errorf("category %v has no cycles in span: %+v", c, sp.Categories)
		}
	}
}

// TestServeOneProfiledTree: a sampled request carries a span tree whose
// root matches the span totals and whose self-cycles telescope back to
// the root — the /tracez export invariant.
func TestServeOneProfiledTree(t *testing.T) {
	p, err := NewPool(1, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Acquire()
	defer p.Release(w)
	w.ServeOne()

	_, sp, _ := w.ServePageSpanCtx(context.Background(), -1, true)
	tree := sp.Tree
	if tree == nil {
		t.Fatal("sampled span has no tree")
	}
	if tree.Worker != 0 || tree.Root == nil || tree.Root.Name != "request" {
		t.Fatalf("tree header: %+v", tree)
	}
	if tree.Root.Cycles != sp.Cycles || tree.Root.Categories != sp.Categories {
		t.Errorf("tree root (%v) disagrees with span (%v)", tree.Root.Cycles, sp.Cycles)
	}
	var selfSum float64
	names := map[string]bool{}
	tree.Root.Walk(func(s *obs.TreeSpan, _ int) {
		selfSum += s.SelfCycles()
		names[s.Name] = true
	})
	if math.Abs(selfSum-tree.Root.Cycles) > 1e-6*tree.Root.Cycles {
		t.Errorf("Σ self-cycles %v != root inclusive %v", selfSum, tree.Root.Cycles)
	}
	for _, want := range []string{"render", "load_config", "route_request", "render_item", "vm:build_tag", "vm:chain_apply"} {
		if !names[want] {
			t.Errorf("tree is missing a %q span; have %v", want, names)
		}
	}
	// The unsampled path must not leave a builder attached.
	if w.Runtime().Tracing() {
		t.Error("runtime still tracing after profiled request")
	}
	_, sp2 := w.serve(nil, -1, false)
	if sp2.Tree != nil {
		t.Error("unsampled request grew a tree")
	}
}

// TestPoolRunWithCollector: with a collector attached, Run feeds every
// measured request through it and samples spans at the configured rate.
func TestPoolRunWithCollector(t *testing.T) {
	p, err := NewPool(2, swConfig(), "drupal", 1)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(0.25, nil, nil)
	p.SetCollector(col)
	res := p.Run(LoadGenerator{Warmup: 2, Requests: 40}, 0)
	snap := col.Snapshot()
	if snap.Requests != 40 {
		t.Errorf("collector saw %d requests, want 40", snap.Requests)
	}
	if snap.SampledSpans != 10 {
		t.Errorf("sampled %d spans at rate 0.25 over 40, want 10", snap.SampledSpans)
	}
	if snap.Latency.Count != 40 {
		t.Errorf("histogram count = %d", snap.Latency.Count)
	}
	if res.Requests != 40 {
		t.Errorf("result requests = %d", res.Requests)
	}
	// The collector must not perturb the simulated metrics: a run without
	// one yields identical cycles.
	p2, err := NewPool(2, swConfig(), "drupal", 1)
	if err != nil {
		t.Fatal(err)
	}
	res2 := p2.Run(LoadGenerator{Warmup: 2, Requests: 40}, 0)
	if math.Abs(res.Cycles-res2.Cycles) > 1e-9*res.Cycles {
		t.Errorf("collector changed simulated cycles: %v vs %v", res.Cycles, res2.Cycles)
	}
}

// TestResultCategories: Run's category breakdown sums to the total and
// never divides by zero.
func TestResultCategories(t *testing.T) {
	p, err := NewPool(2, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Run(LoadGenerator{Warmup: 2, Requests: 8}, 0)
	if math.Abs(res.Categories.Total()-res.Cycles) > 1e-9*res.Cycles {
		t.Errorf("categories sum %v != cycles %v", res.Categories.Total(), res.Cycles)
	}
	var shares float64
	for _, c := range sim.Categories() {
		shares += res.CategoryShare(c)
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("shares sum to %v", shares)
	}
	if (Result{}).CategoryShare(sim.CatHash) != 0 {
		t.Errorf("zero-cycle result must not divide")
	}
}

// TestPoolSnapshot: one barrier yields a consistent meter + trace +
// accel view, including the regex cache and hardware hash table
// counters.
func TestPoolSnapshot(t *testing.T) {
	p, err := NewPool(2, hwConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(LoadGenerator{Warmup: 2, Requests: 12}, 0)
	ps := p.Snapshot()
	if ps.Meter.TotalCycles() <= 0 {
		t.Errorf("snapshot meter empty")
	}
	if ps.Trace == nil || ps.Trace.Total() == 0 {
		t.Errorf("snapshot trace empty")
	}
	if ps.Accel.HashTable.Gets == 0 {
		t.Errorf("no hardware hash table activity: %+v", ps.Accel.HashTable)
	}
	if ps.Accel.RegexLookups == 0 || ps.Accel.RegexHits == 0 {
		t.Errorf("no regex cache activity: %+v", ps.Accel)
	}
	if ps.Accel.RegexHits > ps.Accel.RegexLookups {
		t.Errorf("hits exceed lookups: %+v", ps.Accel)
	}
	kt := ps.Trace.KindTotals()
	if kt[trace.KindHashGet] == 0 || kt[trace.KindRequest] == 0 {
		t.Errorf("trace kind totals empty: %v", kt)
	}
}

// TestPoolSnapshotIndependentOfRing: Pool.Snapshot, behind every /stats
// and /metrics scrape, merges the workers' per-kind counts only — what it
// allocates does not grow with how many events their rings hold.
func TestPoolSnapshotIndependentOfRing(t *testing.T) {
	allocs := func(capacity int) float64 {
		cfg := swConfig()
		cfg.TraceCapacity = capacity
		p, err := NewPool(2, cfg, "wordpress", 1)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(LoadGenerator{Requests: 20}, 0) // ~12k events per worker: both rings full
		if n := p.Snapshot().Trace.Total(); n < 2*4096 {
			t.Fatalf("%d events recorded, want more than the rings hold", n)
		}
		return testing.AllocsPerRun(5, func() { p.Snapshot() })
	}
	if small, large := allocs(16), allocs(4096); large != small {
		t.Errorf("Pool.Snapshot allocates %.0f times with 4096-event rings, %.0f with 16-event ones", large, small)
	}
}

// TestPoolSnapshotConcurrent is the regression test for the scrape
// deadlock: two overlapping whole-pool drains (a /metrics scrape racing
// /stats, or duplicate scraper replicas) used to each pull a subset of
// workers off the free list and block forever holding them. With snapMu
// serializing drains, concurrent snapshots during live serving must all
// complete.
func TestPoolSnapshotConcurrent(t *testing.T) {
	p, err := NewPool(3, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ { // serving clients
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					w := p.Acquire()
					w.ServeOne()
					p.Release(w)
				}
			}()
		}
		for s := 0; s < 4; s++ { // overlapping scrapers
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if ps := p.Snapshot(); ps.Meter == nil {
						t.Error("nil snapshot meter")
					}
					p.MergedMeter()
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent snapshots deadlocked")
	}
}

// TestWorkerLatenciesBounded: serving frontends never reset their
// workers, so the per-worker latency slice must compact at the cap
// instead of growing for the life of the process.
func TestWorkerLatenciesBounded(t *testing.T) {
	p, err := NewPool(1, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Acquire()
	defer p.Release(w)
	// Pre-fill to the cap rather than rendering 16k pages.
	w.latencies = make([]time.Duration, maxWorkerLatencies)
	w.ServeOne()
	if got, want := len(w.latencies), maxWorkerLatencies/2+1; got != want {
		t.Errorf("after compaction len = %d, want %d", got, want)
	}
	if w.latencies[len(w.latencies)-1] <= 0 {
		t.Errorf("newest latency not recorded after compaction")
	}
}

// BenchmarkPoolServe measures the serving path without observability, the
// baseline for the two sampled variants below.
func BenchmarkPoolServe(b *testing.B) {
	benchmarkPoolServe(b, nil)
}

// BenchmarkPoolServeSampled001 times the same path with spans sampled at
// rate 0.01; what that may cost is pinned by TestSampledTracingBudget.
func BenchmarkPoolServeSampled001(b *testing.B) {
	benchmarkPoolServe(b, obs.NewCollector(0.01, nil, nil))
}

// BenchmarkPoolServeSampledAll profiles every request — the worst case,
// for quantifying the span cost itself.
func BenchmarkPoolServeSampledAll(b *testing.B) {
	benchmarkPoolServe(b, obs.NewCollector(1, nil, nil))
}

func benchmarkPoolServe(b *testing.B, col *obs.Collector) {
	// The server's trace: counted, not kept. Unbounded, the zero value,
	// would make this a benchmark of growslice.
	cfg := hwConfig()
	cfg.TraceCapacity = -1
	p, err := NewPool(1, cfg, "wordpress", 1)
	if err != nil {
		b.Fatal(err)
	}
	p.SetCollector(col)
	p.Run(LoadGenerator{Warmup: 50}, 0) // steady state
	w := p.Acquire()
	defer p.Release(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if col == nil {
			w.ServeOne()
		} else {
			page, sp := w.serve(nil, -1, col.ShouldSample())
			col.Observe(sp, len(page))
		}
	}
}

// TestAcquireCtxPrefersFreeWorker: a free worker beats an
// already-expired context — admission checks the deadline, AcquireCtx
// only enforces it while actually waiting.
func TestAcquireCtxPrefersFreeWorker(t *testing.T) {
	p, err := NewPool(1, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := p.AcquireCtx(ctx)
	if err != nil || w == nil {
		t.Fatalf("free worker with dead ctx: %v, %v", w, err)
	}
	p.Release(w)
}

// TestAcquireCtxCancelledWhileWaiting: with every worker checked out,
// AcquireCtx returns the context error and the pool stays usable.
func TestAcquireCtxCancelledWhileWaiting(t *testing.T) {
	p, err := NewPool(1, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	held := p.Acquire()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if w, err := p.AcquireCtx(ctx); err != context.DeadlineExceeded || w != nil {
		t.Fatalf("AcquireCtx on empty pool = %v, %v", w, err)
	}
	p.Release(held)
	w, err := p.AcquireCtx(context.Background())
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	p.Release(w)
}

// TestAcquireCtxContention is the satellite acceptance test: many
// goroutines race AcquireCtx with aggressive timeouts against a small
// pool (run under -race). However the cancellations interleave with
// grants, no worker may be lost or double-released.
func TestAcquireCtxContention(t *testing.T) {
	const workers, clients, rounds = 2, 16, 50
	p, err := NewPool(workers, swConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	var got, missed int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Mix expired, racing-short, and patient contexts.
				timeout := time.Duration(i%3) * 50 * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				w, err := p.AcquireCtx(ctx)
				cancel()
				if err != nil {
					atomic.AddInt64(&missed, 1)
					continue
				}
				atomic.AddInt64(&got, 1)
				if w.ID() < 0 || w.ID() >= workers {
					t.Errorf("bogus worker id %d", w.ID())
				}
				// Hold the worker long enough that other clients' short
				// deadlines actually expire while they wait.
				time.Sleep(20 * time.Microsecond)
				p.Release(w)
			}
		}(c)
	}
	wg.Wait()

	if got == 0 || missed == 0 {
		t.Fatalf("contention mix degenerate: got %d, missed %d", got, missed)
	}
	// Every worker must be back and distinct: grab them all.
	if idle := p.Idle(); idle != workers {
		t.Fatalf("pool has %d/%d workers after contention", idle, workers)
	}
	seen := map[int]bool{}
	for i := 0; i < workers; i++ {
		w, err := p.AcquireCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if seen[w.ID()] {
			t.Fatalf("worker %d recovered twice (double release)", w.ID())
		}
		seen[w.ID()] = true
		defer p.Release(w)
	}
}

// TestRunCtxCancelledPartialResult: cancelling a run mid-measured-phase
// returns the partial Result for what completed and leaves the pool
// serviceable.
func TestRunCtxCancelledPartialResult(t *testing.T) {
	p, err := NewPool(2, hwConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The collector sees every measured request, so it doubles as a
	// progress signal: cancel once some requests have actually landed.
	col := obs.NewCollector(0, nil, nil)
	p.SetCollector(col)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for col.Snapshot().Requests < 5 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	const huge = 200000
	res := p.RunCtx(ctx, LoadGenerator{Warmup: 1, Requests: huge, ContextSwitchEvery: 8}, 0)
	if res.Requests <= 0 || res.Requests >= huge {
		t.Fatalf("partial result requests = %d", res.Requests)
	}
	if res.Cycles <= 0 || res.Latency.Count != res.Requests {
		t.Errorf("partial result inconsistent: %+v", res)
	}
	// The pool still serves after a cancelled run.
	w := p.Acquire()
	if page := w.ServeOne(); len(page) == 0 {
		t.Errorf("pool unusable after cancelled run")
	}
	p.Release(w)
}

// TestLatencyStatsSmallSamples pins the nearest-rank percentile math at
// the degenerate sizes a short run can produce: with one sample
// every percentile is that sample; with two, p50 is the smaller value
// (rank ceil(0.5*2) = 1) and p95/p99 the larger (rank ceil(1.9) =
// ceil(1.98) = 2).
func TestLatencyStatsSmallSamples(t *testing.T) {
	one := LatencyStatsFrom([]time.Duration{42 * time.Millisecond})
	if one.Count != 1 {
		t.Fatalf("count = %d, want 1", one.Count)
	}
	for name, got := range map[string]time.Duration{
		"mean": one.Mean, "p50": one.P50, "p95": one.P95, "p99": one.P99, "max": one.Max,
	} {
		if got != 42*time.Millisecond {
			t.Errorf("single sample %s = %v, want 42ms", name, got)
		}
	}

	two := LatencyStatsFrom([]time.Duration{20 * time.Millisecond, 10 * time.Millisecond})
	if two.Count != 2 || two.Mean != 15*time.Millisecond || two.Max != 20*time.Millisecond {
		t.Fatalf("two-sample summary = %+v", two)
	}
	if two.P50 != 10*time.Millisecond {
		t.Errorf("two-sample p50 = %v, want the smaller value (nearest rank 1)", two.P50)
	}
	if two.P95 != 20*time.Millisecond || two.P99 != 20*time.Millisecond {
		t.Errorf("two-sample tail = p95 %v, p99 %v; want the larger value", two.P95, two.P99)
	}
}

// TestSampledTracingBudget pins what sampling span trees at the default
// serving rate (1 request in 100) is allowed to cost, stated as its
// causes rather than as a wall-clock ratio (that ratio is the
// benchmark's trace_overhead_frac row): exactly every 100th request is
// profiled, a profiled request's tree is bounded, the Go-heap surcharge
// of one profiled request is budgeted, and profiling is invisible to the
// simulation — every leaf function's charges, the category cycles and
// the trace-event counts are identical with sampling on and off.
func TestSampledTracingBudget(t *testing.T) {
	// No collection while counting: one empties the sync.Pools mid-run
	// and moves a count by one or two allocations in 25,000.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const requests = 600
	type outcome struct {
		res     Result
		fns     []sim.FnStats
		calls   int64
		events  [trace.NumKinds]int64
		allocs  float64 // per request
		sampled int64
		trees   []*obs.Tree
	}
	run := func(rate float64) outcome {
		cfg := hwConfig()
		cfg.TraceCapacity = -1 // the server's trace: counted, not kept
		p, err := NewPool(1, cfg, "wordpress", 1)
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector(rate, nil, nil)
		col.SetTreeRing(obs.NewTreeRing(64))
		p.SetCollector(col)
		// AllocsPerRun makes two runs (one to warm up). Each resets the
		// workers and profiles the same 6 of its 600 requests, so the
		// second one's Result is a fresh pool's.
		var o outcome
		o.allocs = testing.AllocsPerRun(1, func() {
			o.res = p.Run(LoadGenerator{Warmup: 40, Requests: requests, ContextSwitchEvery: 64}, 0)
		}) / requests
		for _, f := range p.MergedMeter().Functions() {
			o.fns = append(o.fns, *f)
			o.calls += f.Calls
		}
		o.events = p.mergedTraceOwned(-1).KindTotals()
		o.sampled = col.Snapshot().SampledSpans
		o.trees = col.TreeRing().Last(64)
		return o
	}
	off, on := run(0), run(0.01)

	if off.sampled != 0 || len(off.trees) != 0 {
		t.Errorf("rate 0 sampled %d spans and kept %d trees, want none", off.sampled, len(off.trees))
	}
	if want := int64(2 * requests / 100); on.sampled != want || int64(len(on.trees)) != want {
		t.Errorf("rate 0.01 sampled %d spans and kept %d trees over %d requests, want exactly %d",
			on.sampled, len(on.trees), 2*requests, want)
	}
	// Measured: 30 spans in the largest sampled WordPress tree.
	const maxSpans = 40
	most := 0
	for _, tr := range on.trees {
		if n := tr.Root.NumSpans(); n > most {
			most = n
		}
	}
	if most == 0 || most > maxSpans {
		t.Errorf("largest sampled tree has %d spans, want 1..%d", most, maxSpans)
	}

	if on.res.Cycles != off.res.Cycles || on.res.Uops != off.res.Uops || on.res.EnergyPJ != off.res.EnergyPJ ||
		on.res.Categories != off.res.Categories || on.res.ResponseBytes != off.res.ResponseBytes {
		t.Errorf("sampling moved the simulation:\n off %+v\n on  %+v", off.res, on.res)
	}
	if on.calls != off.calls || len(on.fns) != len(off.fns) {
		t.Errorf("sampling changed the charges: %d calls over %d functions vs %d over %d",
			on.calls, len(on.fns), off.calls, len(off.fns))
	} else {
		for i := range on.fns {
			if on.fns[i] != off.fns[i] {
				t.Errorf("sampling changed leaf function %d: %+v vs %+v", i, on.fns[i], off.fns[i])
			}
		}
	}
	if on.events != off.events {
		t.Errorf("sampling changed the trace events: %v vs %v", on.events, off.events)
	}

	// Measured 61 allocations per profiled request (the tree's spans and
	// the builder's frames): 42.07 allocs/request unsampled, 42.69 at
	// rate 0.01. The budget of 100 leaves room for a few more spans while
	// catching a tree built for every request (+61 on each) or a per-span
	// leak.
	const perSampledBudget = 100
	perSampled := (on.allocs - off.allocs) * 100
	t.Logf("allocs/request: unsampled %.2f, sampled@0.01 %.2f (%.0f per profiled request); %d charges, %d spans in the largest tree",
		off.allocs, on.allocs, perSampled, on.calls, most)
	if perSampled > perSampledBudget {
		t.Errorf("a profiled request allocates %.0f times more than an unprofiled one, budget %d", perSampled, perSampledBudget)
	}
}
