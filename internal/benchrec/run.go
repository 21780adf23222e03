package benchrec

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/php"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Matrix knobs pinned per scale. The full scale matches the paper's
// serving methodology (300 warmup, 200 measured — EXPERIMENTS.md);
// quick is sized for CI.
const (
	fullWarmup  = 300
	fullMeasure = 200

	quickWarmup  = 40
	quickMeasure = 80

	matrixApp     = "wordpress"
	matrixWorkers = 2

	// Scheduler scenario: a deep queue and a generous timeout keep shed
	// counts deterministically zero — overload behaviour is covered by
	// the serve package's own tests, not the trajectory.
	schedQueueDepth = 64
	schedTimeout    = 30 * time.Second

	// Cached scenario: 128 cached responses over 512 Zipf(1.0) pages.
	// The analytic steady-state top-128 share is ~80%; the recorded
	// ratio sits lower (~0.5 at full scale) because the cache starts
	// cold, but the exact value is pinned by the seed.
	cacheCapacity = 128
	zipfPages     = 512
	zipfExponent  = 1.0

	// Cluster sweep: 1/2/4 single-worker backends behind the affinity
	// ring, sharing the SAME total cache budget and page universe as
	// cache_zipf so the aggregate hit ratio is directly comparable. The
	// simulated database stall is what the extra backends overlap — on a
	// one-core host, CPU render time serializes regardless of backend
	// count, so cluster scaling is an I/O-overlap claim, exactly like
	// real FPM fleets sized for database-bound pages. 2048 ring replicas
	// keep the distinct-page split close to even at 4 backends (the
	// straggler backend's share of misses bounds cluster speedup, and
	// coarser rings measurably widen it); the 45ms stall makes I/O
	// overlap dominate the serialized CPU renders.
	clusterWorkers      = 1
	clusterRingReplicas = 2048
	clusterDBWaitFull   = 45 * time.Millisecond
	clusterDBWaitQuick  = 2 * time.Millisecond
	clusterMeasureFull  = 400
	clusterMeasureQuick = 80

	// Scripted scenario: the PHP blog script served page-keyed (uncached)
	// over the same Zipf page universe as cache_zipf, once pinned to the
	// tree-walking interpreter and once with profile-guided tier
	// promotion. The pair is the trajectory's view of the bytecode tier:
	// same requests, same pages, same output bytes, different execution
	// engine once the hot functions cross the promotion threshold.
	scriptedApp = "phpscript-blog"
)

// Options selects the matrix size and base seed for one run.
type Options struct {
	// Scale is "full" (default) or "quick".
	Scale string
	// Seed is the base RNG seed (default 1, the seed EXPERIMENTS.md
	// figures use).
	Seed int64
	// Trials is how many times the whole matrix runs (<= 0 means 1).
	// Wall-clock metrics (throughput, latency percentiles, allocs/op)
	// keep the best value observed across trials, per scenario and
	// metric; the deterministic fields must agree exactly across trials
	// or RunMatrix errors. Contention on a shared host only ever slows
	// a trial down, so the per-metric best is the estimate of the
	// machine's unloaded speed — the same alternating best-of-trials
	// defence the wall-clock overhead guards use. bench-record and
	// bench-check both run 5 trials so the committed and fresh sides
	// estimate the same statistic. (Three trials sufficed while the
	// serve path allocated ~1700 objects/request; the arena/recycling
	// work made requests fast enough that tail percentiles over a
	// 200-request window need the larger sample to stabilize.)
	Trials int
}

func (o *Options) normalize() error {
	if o.Scale == "" {
		o.Scale = "full"
	}
	if o.Scale != "full" && o.Scale != "quick" {
		return fmt.Errorf("benchrec: unknown scale %q (want full or quick)", o.Scale)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	return nil
}

// counts returns (warmup, measured) for the scale.
func (o Options) counts() (int, int) {
	if o.Scale == "quick" {
		return quickWarmup, quickMeasure
	}
	return fullWarmup, fullMeasure
}

// RunMatrix runs the pinned scenario matrix opts.Trials times, merges
// the trials metric-wise best (see Options.Trials), and returns the
// resulting record with Seq 0 (the caller assigns the trajectory
// position).
//
// Determinism: every scenario drives the pool from a single closed-loop
// client (or the pool's own statically partitioned loop), so the
// per-worker request streams — and with them every simulated cost,
// cache outcome, and shed count — depend only on Seed and Scale.
// Canonical() strips the remaining wall-clock-dependent fields.
func RunMatrix(opts Options) (Record, error) {
	if err := opts.normalize(); err != nil {
		return Record{}, err
	}
	best, err := runMatrixOnce(opts)
	if err != nil {
		return Record{}, err
	}
	best.CalibOpsPerSec = calibrate()
	for trial := 1; trial < opts.Trials; trial++ {
		rec, err := runMatrixOnce(opts)
		if err != nil {
			return Record{}, err
		}
		if err := mergeBestTrial(&best, rec); err != nil {
			return Record{}, err
		}
		if c := calibrate(); c > best.CalibOpsPerSec {
			best.CalibOpsPerSec = c
		}
	}
	return best, nil
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink uint64

// calibrate measures the host's current pure-CPU speed: a fixed xorshift
// spin (no allocation, no memory traffic beyond one register-resident
// word) timed over several short passes, best pass kept. The loop's
// iterations/sec depend only on how much CPU the host actually grants,
// which is exactly the factor Compare wants to cancel out of the
// wall-clock gates.
func calibrate() float64 {
	const (
		iters  = 1 << 23
		passes = 3
	)
	var best float64
	for p := 0; p < passes; p++ {
		x := uint64(0x9E3779B97F4A7C15)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		elapsed := time.Since(start)
		calibSink += x
		if ops := iters / elapsed.Seconds(); ops > best {
			best = ops
		}
	}
	return best
}

// mergeBestTrial folds one trial into the running best: wall-clock
// metrics keep their best observed value per scenario, and the
// deterministic remainder must match exactly (a divergence means the
// matrix itself went nondeterministic, which is a bug, not noise).
func mergeBestTrial(best *Record, trial Record) error {
	b, t := best.Canonical(), trial.Canonical()
	if len(b.Scenarios) != len(t.Scenarios) {
		return fmt.Errorf("benchrec: trial scenario count drifted: %d vs %d", len(b.Scenarios), len(t.Scenarios))
	}
	for i := range b.Scenarios {
		if !reflect.DeepEqual(b.Scenarios[i], t.Scenarios[i]) {
			return fmt.Errorf("benchrec: scenario %s is nondeterministic across trials:\n  %+v\nvs\n  %+v",
				b.Scenarios[i].Name, b.Scenarios[i], t.Scenarios[i])
		}
	}
	for i := range best.Scenarios {
		bs, ts := &best.Scenarios[i], trial.Scenarios[i]
		if ts.ReqPerSec > bs.ReqPerSec {
			bs.ReqPerSec = ts.ReqPerSec
		}
		if ts.WallMS < bs.WallMS {
			bs.WallMS = ts.WallMS
		}
		if ts.P50US < bs.P50US {
			bs.P50US = ts.P50US
		}
		if ts.P95US < bs.P95US {
			bs.P95US = ts.P95US
		}
		if ts.P99US < bs.P99US {
			bs.P99US = ts.P99US
		}
		if ts.AllocsPerOp < bs.AllocsPerOp {
			bs.AllocsPerOp = ts.AllocsPerOp
		}
	}
	return nil
}

// runMatrixOnce runs every scenario once and assembles one record.
func runMatrixOnce(opts Options) (Record, error) {
	rec := Record{
		Schema:    SchemaVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scale:     opts.Scale,
		Seed:      opts.Seed,
	}
	warmup, measure := opts.counts()

	for _, name := range ScenarioNames() {
		var (
			sc  Scenario
			err error
		)
		switch name {
		case "direct":
			sc, err = runDirect(opts, warmup, measure, true)
		case "accel_off":
			sc, err = runDirect(opts, warmup, measure, false)
		case "scheduler":
			sc, err = runScheduler(opts, warmup, measure)
		case "cache_zipf":
			sc, err = runCacheZipf(opts, warmup, measure)
		case "cluster_zipf_1":
			sc, err = runCluster(opts, warmup, 1)
		case "cluster_zipf_2":
			sc, err = runCluster(opts, warmup, 2)
		case "cluster_zipf_4":
			sc, err = runCluster(opts, warmup, 4)
		case "scripted_zipf_interp":
			sc, err = runScriptedZipf(opts, warmup, measure, php.TierInterp)
		case "scripted_zipf":
			sc, err = runScriptedZipf(opts, warmup, measure, php.TierAuto)
		}
		if err != nil {
			return Record{}, fmt.Errorf("benchrec: scenario %s: %w", name, err)
		}
		sc.Name = name
		rec.Scenarios = append(rec.Scenarios, sc)
	}
	return rec, nil
}

// vmConfig builds the scenario VM config: mitigations always on (the
// paper's §3 baseline for the serving experiments), accelerators per
// the on/off sweep. The trace is bounded: benchmark scenarios never
// read the event ring (per-kind totals stay exact past eviction), and
// an unbounded ring's growth dominated the recorded allocs/op without
// informing any metric.
func vmConfig(accelerated bool) vm.Config {
	name := "mitigated"
	if accelerated {
		name = "accelerated"
	}
	cfg, _ := vm.ConfigByName(name)
	cfg.TraceCapacity = 4096
	return cfg
}

// measureAllocs runs f and returns heap allocations per request across
// it. A forced GC on each side keeps the Mallocs delta from absorbing a
// neighbouring scenario's garbage.
func measureAllocs(requests int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if requests <= 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(requests)
}

// baseScenario fills the config half of a Scenario.
func baseScenario(workers, warmup, measure int, accelerated bool) Scenario {
	return Scenario{
		App:         matrixApp,
		Workers:     workers,
		Warmup:      warmup,
		Requests:    measure,
		Accelerated: accelerated,
	}
}

// simFields fills the simulated-cost fields from a merged meter: cycles
// from the dense category vector, energy from the meter's fixed-order
// total, both reproducible bit for bit (the byte-identical canonical
// record property).
func (sc *Scenario) simFields(mt *sim.Meter, requests int) {
	if requests <= 0 {
		return
	}
	vec := mt.CategoryCyclesVec()
	sc.SimCyclesPerReq = vec.Total() / float64(requests)
	sc.SimEnergyPJPerReq = mt.TotalEnergy() / float64(requests)
	sc.SimCategoryCycles = make(map[string]float64, sim.NumCategories)
	for _, c := range sim.Categories() {
		sc.SimCategoryCycles[c.String()] = vec[c]
	}
}

// latencyFields fills the client-visible latency percentiles.
func (sc *Scenario) latencyFields(l workload.LatencyStats) {
	sc.P50US = float64(l.P50) / float64(time.Microsecond)
	sc.P95US = float64(l.P95) / float64(time.Microsecond)
	sc.P99US = float64(l.P99) / float64(time.Microsecond)
}

// runDirect is the direct pool loop (no scheduler): Pool.Run with the
// static request partition, accelerators on or off. The on/off pair is
// the trajectory's view of the EXPERIMENTS.md accelerator sweep.
func runDirect(opts Options, warmup, measure int, accelerated bool) (Scenario, error) {
	pool, err := workload.NewPool(matrixWorkers, vmConfig(accelerated), matrixApp, opts.Seed)
	if err != nil {
		return Scenario{}, err
	}
	// Warmup separately so the allocation window covers only the
	// measured phase.
	pool.Run(workload.LoadGenerator{Warmup: warmup}, 0)
	var res workload.Result
	allocs := measureAllocs(measure, func() {
		res = pool.Run(workload.LoadGenerator{Requests: measure}, 0)
	})

	sc := baseScenario(matrixWorkers, warmup, measure, accelerated)
	sc.Served = res.Requests
	sc.ReqPerSec = res.Throughput()
	sc.WallMS = float64(res.Wall) / float64(time.Millisecond)
	sc.AllocsPerOp = allocs
	sc.latencyFields(res.Latency)
	sc.simFields(pool.MergedMeter(), res.Requests)
	return sc, nil
}

// runScheduler drives the measured phase through serve.Scheduler with a
// queue and timeout, from one closed-loop client (determinism: the FIFO
// free list rotates workers in a fixed order).
func runScheduler(opts Options, warmup, measure int) (Scenario, error) {
	pool, err := workload.NewPool(matrixWorkers, vmConfig(true), matrixApp, opts.Seed)
	if err != nil {
		return Scenario{}, err
	}
	pool.Run(workload.LoadGenerator{Warmup: warmup}, 0)
	s := serve.NewScheduler(pool, serve.Config{QueueDepth: schedQueueDepth, Timeout: schedTimeout})
	var ls serve.LoadStats
	allocs := measureAllocs(measure, func() {
		ls = serve.RunLoad(context.Background(), s, serve.LoadOptions{Requests: measure, Clients: 1})
	})

	sc := baseScenario(matrixWorkers, warmup, measure, true)
	sc.Clients = 1
	sc.QueueDepth = schedQueueDepth
	sc.TimeoutMS = float64(schedTimeout) / float64(time.Millisecond)
	sc.fillLoadStats(ls)
	sc.AllocsPerOp = allocs
	sc.simFields(pool.MergedMeter(), ls.Served)
	return sc, nil
}

// runCacheZipf is the cached serving path: shared-seed pool (page
// identity), response cache, Zipf page popularity, one client.
func runCacheZipf(opts Options, warmup, measure int) (Scenario, error) {
	pool, err := workload.NewPoolSharedSeed(matrixWorkers, vmConfig(true), matrixApp, opts.Seed)
	if err != nil {
		return Scenario{}, err
	}
	pool.Run(workload.LoadGenerator{Warmup: warmup}, 0)
	s := serve.NewScheduler(pool, serve.Config{QueueDepth: schedQueueDepth, Timeout: schedTimeout})
	c := cache.New(cache.Config{Capacity: cacheCapacity})
	keys, err := workload.NewZipfKeys(opts.Seed, zipfExponent, zipfPages)
	if err != nil {
		return Scenario{}, err
	}
	var ls serve.LoadStats
	allocs := measureAllocs(measure, func() {
		ls = serve.RunLoad(context.Background(), s, serve.LoadOptions{
			Requests: measure,
			Clients:  1,
			Cache:    c,
			PageKey:  keys.Next,
		})
	})

	sc := baseScenario(matrixWorkers, warmup, measure, true)
	sc.Clients = 1
	sc.QueueDepth = schedQueueDepth
	sc.TimeoutMS = float64(schedTimeout) / float64(time.Millisecond)
	sc.CacheCapacity = cacheCapacity
	sc.ZipfPages = zipfPages
	sc.ZipfS = zipfExponent
	sc.fillLoadStats(ls)
	sc.AllocsPerOp = allocs
	mt := pool.MergedMeter()
	c.MergeMeter(mt) // hits cost lookup cycles too; keep the totals exact
	sc.simFields(mt, ls.Served)
	return sc, nil
}

// runCluster is the FPM-style cluster sweep: `backends` single-worker
// stacks behind the consistent-hash ring, serving the shared Zipf
// stream partitioned by key ownership, each miss stalling dbwait on its
// worker. The 1/2/4 points committed together are the scaling claim:
// throughput grows near-linearly (stall overlap) while the aggregate
// hit ratio stays within a few points of the single-process figure
// (affinity keeps each page's cache entry on exactly one backend).
func runCluster(opts Options, warmup, backends int) (Scenario, error) {
	measure, dbWait := clusterMeasureFull, clusterDBWaitFull
	if opts.Scale == "quick" {
		measure, dbWait = clusterMeasureQuick, clusterDBWaitQuick
	}
	cl, err := serve.NewCluster(serve.ClusterOptions{
		Backends:          backends,
		WorkersPerBackend: clusterWorkers,
		Config:            vmConfig(true),
		App:               matrixApp,
		Seed:              opts.Seed,
		QueueDepth:        schedQueueDepth,
		Timeout:           schedTimeout,
		CacheCapacity:     cacheCapacity,
		Pages:             zipfPages,
		ZipfS:             zipfExponent,
		DBWait:            dbWait,
		RingReplicas:      clusterRingReplicas,
	})
	if err != nil {
		return Scenario{}, err
	}
	cl.Warm(warmup)
	var cs serve.ClusterStats
	var runErr error
	allocs := measureAllocs(measure, func() {
		cs, runErr = cl.RunZipf(context.Background(), measure)
	})
	if runErr != nil {
		return Scenario{}, runErr
	}

	sc := baseScenario(clusterWorkers, warmup, measure, true)
	sc.Clients = backends
	sc.Backends = backends
	sc.DBWaitMS = float64(dbWait) / float64(time.Millisecond)
	sc.QueueDepth = schedQueueDepth
	sc.TimeoutMS = float64(schedTimeout) / float64(time.Millisecond)
	sc.CacheCapacity = cacheCapacity
	sc.ZipfPages = zipfPages
	sc.ZipfS = zipfExponent
	sc.fillLoadStats(cs.Aggregate)
	sc.AllocsPerOp = allocs
	sc.simFields(cl.MergedMeter(), cs.Aggregate.Served)
	return sc, nil
}

// runScriptedZipf serves the scripted blog workload page-keyed (no
// response cache — every request renders) through the scheduler, with
// the execution tier pinned to the interpreter or free to promote
// (TierAuto with the default policy). Warmup drives each worker's
// per-worker interpreter through the promotion window in auto mode, so
// the measured phase runs mostly in the bytecode tier; the recorded
// tier counters and Fig. 1 profile gauges pin that state in the
// trajectory.
func runScriptedZipf(opts Options, warmup, measure int, mode php.TierMode) (Scenario, error) {
	pool, err := workload.NewPoolSharedSeed(matrixWorkers, vmConfig(true), scriptedApp, opts.Seed)
	if err != nil {
		return Scenario{}, err
	}
	supported, err := pool.ConfigureScriptTier(mode, php.DefaultTierPolicy())
	if err != nil {
		return Scenario{}, err
	}
	if !supported {
		return Scenario{}, fmt.Errorf("%s does not support script tiering", scriptedApp)
	}
	pool.Run(workload.LoadGenerator{Warmup: warmup}, 0)
	s := serve.NewScheduler(pool, serve.Config{QueueDepth: schedQueueDepth, Timeout: schedTimeout})
	keys, err := workload.NewZipfKeys(opts.Seed, zipfExponent, zipfPages)
	if err != nil {
		return Scenario{}, err
	}
	var ls serve.LoadStats
	allocs := measureAllocs(measure, func() {
		ls = serve.RunLoad(context.Background(), s, serve.LoadOptions{
			Requests: measure,
			Clients:  1,
			PageKey:  keys.Next,
		})
	})

	sc := baseScenario(matrixWorkers, warmup, measure, true)
	sc.App = scriptedApp
	sc.Clients = 1
	sc.QueueDepth = schedQueueDepth
	sc.TimeoutMS = float64(schedTimeout) / float64(time.Millisecond)
	sc.ZipfPages = zipfPages
	sc.ZipfS = zipfExponent
	sc.fillLoadStats(ls)
	sc.AllocsPerOp = allocs
	mt := pool.MergedMeter()
	sc.simFields(mt, ls.Served)

	snap := pool.TierSnapshot()
	sc.Tier = snap.Mode
	sc.TierPromotions = snap.Promotions
	sc.TierPromotedFunctions = snap.PromotedFunctions
	sc.TierBytecodeCalls = snap.BytecodeCalls
	sc.TierInterpCalls = snap.InterpCalls
	sc.TierICHits = snap.ICHits
	p := profile.FromMeter(mt)
	sc.ProfileHottestFrac = p.HottestFrac()
	sc.ProfileFuncsFor65 = p.FuncsForFrac(0.65)
	return sc, nil
}

// fillLoadStats copies a RunLoad result into the scenario's measured
// fields.
func (sc *Scenario) fillLoadStats(ls serve.LoadStats) {
	sc.Served = ls.Served
	sc.ShedOverload = ls.ShedOverload
	sc.ShedDeadline = ls.ShedDeadline
	sc.ShedCanceled = ls.ShedCanceled
	sc.ShedDraining = ls.ShedDraining
	sc.CacheHits = ls.CacheHits
	sc.CacheMisses = ls.CacheMisses
	sc.CacheCoalesced = ls.CacheCoalesced
	sc.CacheHitRatio = ls.CacheHitRatio()
	if ls.Wall > 0 {
		sc.ReqPerSec = float64(ls.Served) / ls.Wall.Seconds()
	}
	sc.WallMS = float64(ls.Wall) / float64(time.Millisecond)
	sc.latencyFields(ls.Latency)
}
