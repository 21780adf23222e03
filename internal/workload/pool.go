// This file is the multi-worker serving layer: the Go analogue of the
// paper's evaluation stack, which drives oss-performance load at a pool
// of HHVM request workers (§5.1). Each Worker owns a private vm.Runtime
// — its own accelerators, meter, and trace — so workers share no mutable
// state and run freely on separate goroutines; the fleet-level Result is
// produced by merging the per-worker meters and traces after the
// goroutines join.

package workload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core/hashtable"
	"repro/internal/obs"
	"repro/internal/php"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Worker is one serving slot: a private runtime plus the app instance
// bound to it. A worker must be owned by exactly one goroutine at a time;
// ownership is transferred through Pool.Acquire/Release.
type Worker struct {
	id  int
	rt  *vm.Runtime
	app App

	// seq is the worker's request sequence: the last page a page < 0
	// render drew. Unlike served it survives reset, so the n-th request
	// after a warm-up of w is page w+n; an explicit-page render never
	// advances it.
	seq       int
	served    int
	respBytes int64
}

// ID returns the worker's index in the pool.
func (w *Worker) ID() int { return w.id }

// Runtime exposes the worker's private runtime. Callers must hold
// ownership of the worker (via Pool.Acquire or inside Pool.Run).
func (w *Worker) Runtime() *vm.Runtime { return w.rt }

// Served returns how many requests this worker has served since its last
// reset.
func (w *Worker) Served() int { return w.served }

// ServeOne renders the next page of the worker's sequence, counting it
// and its response size.
func (w *Worker) ServeOne() []byte {
	page, _ := w.serve(-1, false)
	return page
}

// ServeOneCtx is ServeOne with the request deadline propagated from
// admission: if ctx is already done when the worker picks the request
// up, the render is skipped and the context's error returned, so a
// request that spent its whole deadline queueing is not rendered for a
// client that stopped waiting. A render that has started always runs to
// completion — like a PHP-FPM worker, the execution itself is not
// preemptible.
func (w *Worker) ServeOneCtx(ctx context.Context) ([]byte, error) {
	page, _, err := w.ServePageSpanCtx(ctx, -1, false)
	return page, err
}

// ServePageSpanCtx is the one deadline-aware render every serving path
// goes through: it checks the request's deadline at worker pickup, then
// renders, profiling the request when profile is true. A non-negative
// page renders that page — how cache fills render the exact page the
// cache key names — and a negative page renders the next page of the
// worker's own sequence. The returned span always carries worker
// identity and render wall time; a profiled one additionally attributes
// the request's simulated cycles to the paper's activity categories in
// a span tree, which is why callers sample rather than profile every
// request.
func (w *Worker) ServePageSpanCtx(ctx context.Context, page int, profile bool) ([]byte, obs.Span, error) {
	if err := ctx.Err(); err != nil {
		return nil, obs.Span{}, err
	}
	body, sp := w.serve(page, profile)
	return body, sp, nil
}

// ContextSwitchEvery is the context-switch cadence of every pool-driven
// serving path: call it after each request, and every n-th request the
// worker has served since its last reset ends with a context switch on
// its runtime (n <= 0 disables).
func (w *Worker) ContextSwitchEvery(n int) {
	if n > 0 && w.served%n == 0 {
		w.rt.ContextSwitch()
	}
}

// serve runs one render — page, or the worker's next page when page is
// negative — measuring its wall time for the span and (when profile is
// true) building the span tree. The wall clock and the tree share one
// starting instant, so the tree root's Dur can never exceed the span's
// Wall — and for profiled requests the two are set equal exactly (the
// invariant the /tracez exports rely on).
func (w *Worker) serve(page int, profile bool) ([]byte, obs.Span) {
	if page < 0 {
		w.seq++
		page = w.seq
	}
	start := time.Now()
	var tb *obs.TreeBuilder
	if profile {
		// The builder's root "request" span doubles as the meter diff:
		// its category delta is exactly what the before/after snapshot
		// used to compute, so the tree costs no extra vector reads at
		// the request level.
		tb = obs.NewTreeBuilderAt(w.rt.Meter(), start)
		w.rt.SetSpans(tb)
		w.rt.BeginSpan("render")
	}
	body := w.app.ServePage(w.rt, page)
	wall := time.Since(start)
	sp := obs.Span{Worker: w.id, Wall: wall}
	if profile {
		w.rt.SetSpans(nil)
		tree := tb.Finish(w.id)
		sp.Sampled = true
		sp.Tree = tree
		// Finish read the clock after the wall measurement; pin the two
		// to the same value so root Dur == span Wall exactly.
		tree.Root.Dur = wall
	}
	w.served++
	w.respBytes += int64(len(body))
	return body, sp
}

// reset discards accumulated measurements but keeps runtime state warm
// and the page sequence where it is.
func (w *Worker) reset() {
	w.rt.Meter().Reset()
	w.rt.Trace().Reset()
	w.served = 0
	w.respBytes = 0
}

// Pool owns n independent workers and hands them out one goroutine at a
// time. Worker i runs app appName seeded with seed+i, so a pool run is
// deterministic in its simulated metrics (cycles, uops, energy) even
// though wall-clock latencies vary.
type Pool struct {
	workers []*Worker
	free    chan *Worker

	// snapMu serializes whole-pool drains (Run, Snapshot, MergedMeter,
	// ConfigureScriptTier). Without it, two overlapping drains — e.g. a
	// /metrics scrape racing a /profilez scrape — can each pull a subset
	// of workers off the free list and block forever holding them,
	// wedging the server. At most one goroutine may drain the free list
	// at a time.
	snapMu sync.Mutex
}

// NewPool builds n workers, each with a fresh runtime from cfg and its
// own app instance. Worker i is seeded with seed+i, so workers render
// distinct content — the traffic-variety default for throughput runs.
func NewPool(n int, cfg vm.Config, appName string, seed int64) (*Pool, error) {
	return newPool(n, cfg, appName, func(i int) int64 { return seed + int64(i) })
}

// NewPoolSharedSeed builds a pool whose workers all use the same seed,
// so every worker renders identical bytes for a given page index. That
// is the configuration a response cache requires: a cached page must
// match what any other worker would have rendered for the same key.
func NewPoolSharedSeed(n int, cfg vm.Config, appName string, seed int64) (*Pool, error) {
	return newPool(n, cfg, appName, func(int) int64 { return seed })
}

func newPool(n int, cfg vm.Config, appName string, seedFor func(i int) int64) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: pool needs at least 1 worker, got %d", n)
	}
	p := &Pool{free: make(chan *Worker, n)}
	for i := 0; i < n; i++ {
		app, err := ByName(appName, seedFor(i))
		if err != nil {
			return nil, err
		}
		w := &Worker{id: i, rt: vm.New(cfg), app: app}
		p.workers = append(p.workers, w)
		p.free <- w
	}
	return p, nil
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Idle returns how many workers are currently on the free list. Size() -
// Idle() is the busy-worker gauge the /metrics endpoint exports; the
// value is a racy instantaneous reading, which is all a utilization
// gauge needs.
func (p *Pool) Idle() int { return len(p.free) }

// Acquire blocks until a worker is free and transfers its ownership to
// the caller. Pair with Release.
func (p *Pool) Acquire() *Worker { return <-p.free }

// AcquireCtx blocks until a worker is free or ctx is done, whichever
// comes first. A free worker wins over an already-expired context, so a
// request never times out when capacity was available at the moment it
// asked. On success ownership transfers to the caller (pair with
// Release); otherwise the context's error is returned and no worker is
// held.
func (p *Pool) AcquireCtx(ctx context.Context) (*Worker, error) {
	select {
	case w := <-p.free:
		return w, nil
	default:
	}
	select {
	case w := <-p.free:
		return w, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns a worker to the free list.
func (p *Pool) Release(w *Worker) { p.free <- w }

// acquireAll takes exclusive ownership of every worker, blocking until
// in-flight requests drain. It holds snapMu until the matching
// releaseAll so concurrent drains queue up instead of deadlocking on
// partial free-list ownership.
func (p *Pool) acquireAll() {
	p.snapMu.Lock()
	for range p.workers {
		<-p.free
	}
}

func (p *Pool) releaseAll() {
	for _, w := range p.workers {
		p.free <- w
	}
	p.snapMu.Unlock()
}

// MergedMeter returns a fresh meter aggregating every worker's cost
// statistics. It blocks until all workers are idle.
func (p *Pool) MergedMeter() *sim.Meter {
	p.acquireAll()
	defer p.releaseAll()
	return p.mergedMeterOwned()
}

// mergedMeterOwned requires the caller to hold every worker.
func (p *Pool) mergedMeterOwned() *sim.Meter {
	mt := sim.NewMeter(p.workers[0].rt.Meter().Model)
	for _, w := range p.workers {
		mt.Merge(w.rt.Meter())
	}
	return mt
}

// mergedTraceOwned returns a fresh recorder of the given capacity (see
// trace.NewRecorder) holding every worker's counts and, unless counting,
// retained events grouped by worker. It requires the caller to hold every
// worker.
func (p *Pool) mergedTraceOwned(capacity int) *trace.Recorder {
	rec := trace.NewRecorder(capacity)
	for _, w := range p.workers {
		rec.Merge(w.rt.Trace())
	}
	return rec
}

// Run drives the load generator across the pool: every worker serves the
// full warmup phase (bringing its private accelerator state and metadata
// caches to steady state, costs discarded), then lg.Requests measured
// requests are statically partitioned across workers and served on one
// goroutine per worker, at most concurrency workers executing at once
// (<=0 means all). The static partition keeps the simulated metrics
// deterministic for a given pool regardless of scheduling. The Result
// aggregates the measured phase: served counts, merged meter and trace.
func (p *Pool) Run(lg LoadGenerator, concurrency int) Result {
	p.acquireAll()
	defer p.releaseAll()

	n := len(p.workers)
	if concurrency <= 0 || concurrency > n {
		concurrency = n
	}
	counts := make([]int, n)
	for i := 0; i < lg.Requests; i++ {
		counts[i%n]++
	}

	sem := make(chan struct{}, concurrency)
	runPhase := func(f func(w *Worker, count int)) {
		var wg sync.WaitGroup
		for i, w := range p.workers {
			wg.Add(1)
			go func(w *Worker, count int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				f(w, count)
			}(w, counts[i])
		}
		wg.Wait()
	}

	// Both phases count the cadence from a freshly reset worker: every
	// ContextSwitchEvery-th request of each phase ends with a switch.
	runPhase(func(w *Worker, _ int) {
		w.reset()
		for i := 0; i < lg.Warmup; i++ {
			w.ServeOne()
			w.ContextSwitchEvery(lg.ContextSwitchEvery)
		}
		w.reset()
	})
	runPhase(func(w *Worker, count int) {
		for i := 0; i < count; i++ {
			w.ServeOne()
			w.ContextSwitchEvery(lg.ContextSwitchEvery)
		}
	})

	var res Result
	for _, w := range p.workers {
		res.Requests += w.served
		res.ResponseBytes += w.respBytes
	}
	mt := p.mergedMeterOwned()
	res.Cycles = mt.TotalCycles()
	res.EnergyPJ = mt.TotalEnergy()
	res.Keys = keyStatsFromTrace(p.mergedTraceOwned(0))
	return res
}

// ScriptTiered is implemented by apps that execute PHP source
// (ScriptedApp): the pool can pick their execution engine and collect
// per-worker inline-cache state.
type ScriptTiered interface {
	SetScriptTier(mode php.TierMode, policy php.TierPolicy) error
	TierSnapshotFor(rt *vm.Runtime) php.TierSnapshot
}

// ConfigureScriptTier switches every scripted worker app to the given
// execution engine (the policy is ignored), quiescing the pool first so
// no request observes the switch mid-render. It reports whether any
// worker's app runs a script (false for Go-coded recipe apps, where the
// flag is a no-op).
func (p *Pool) ConfigureScriptTier(mode php.TierMode, policy php.TierPolicy) (bool, error) {
	p.acquireAll()
	defer p.releaseAll()
	any := false
	for _, w := range p.workers {
		st, ok := w.app.(ScriptTiered)
		if !ok {
			continue
		}
		if err := st.SetScriptTier(mode, policy); err != nil {
			return any, err
		}
		any = true
	}
	return any, nil
}

// tierSnapshotOwned merges every scripted worker's engine state into one
// fleet-aggregate view; it is zero (Enabled false) when no worker runs a
// configured script. It requires the caller to hold every worker.
func (p *Pool) tierSnapshotOwned() php.TierSnapshot {
	var s php.TierSnapshot
	for _, w := range p.workers {
		if st, ok := w.app.(ScriptTiered); ok {
			s.Merge(st.TierSnapshotFor(w.rt))
		}
	}
	return s
}

// AccelStats aggregates the fleet's hardware-structure and runtime-cache
// counters — the observability signals that are per-worker state rather
// than meter charges.
type AccelStats struct {
	// HashTable sums every worker's hardware hash table counters
	// (zero-valued when the config has no hash table).
	HashTable hashtable.Stats `json:"-"`
	// MapRebuilds are §4.2 coherence events; the paper expects them to
	// be rare.
	MapRebuilds  int64 `json:"hashmap_rebuilds" prom:"hashmap_rebuilds_total,counter" help:"Stale hash-index rebuilds (coherence events) across all workers."`
	RegexLookups int64 `json:"-" prom:"regex_cache_lookups_total,counter" help:"Regexp manager pattern-cache probes."`
	RegexHits    int64 `json:"-" prom:"regex_cache_hits_total,counter" help:"Regexp manager probes that found a compiled FSM."`
}

// accelStatsOwned requires the caller to hold every worker.
func (p *Pool) accelStatsOwned() AccelStats {
	var s AccelStats
	for _, w := range p.workers {
		cpu := w.rt.CPU()
		if cpu.HT != nil {
			s.HashTable.Add(cpu.HT.Stats())
		}
		s.MapRebuilds += cpu.MapRebuilds()
		lk, hit := w.rt.RegexCacheStats()
		s.RegexLookups += lk
		s.RegexHits += hit
	}
	return s
}

// PoolSnapshot is one consistent fleet-level view: merged meter, merged
// trace counts (a counting recorder: every reader wants KindTotals, so no
// event is copied), accelerator statistics and script-engine state, all
// taken under the same quiescence barrier so a scrape reads one coherent
// moment.
type PoolSnapshot struct {
	Meter *sim.Meter
	Trace *trace.Recorder
	Accel AccelStats
	Tier  php.TierSnapshot
}

// Snapshot drains the free list (waiting for in-flight requests) and
// returns the merged meter, merged trace counts, accelerator statistics
// and script-engine state in one barrier.
func (p *Pool) Snapshot() PoolSnapshot {
	p.acquireAll()
	defer p.releaseAll()
	return PoolSnapshot{
		Meter: p.mergedMeterOwned(),
		Trace: p.mergedTraceOwned(-1),
		Accel: p.accelStatsOwned(),
		Tier:  p.tierSnapshotOwned(),
	}
}
