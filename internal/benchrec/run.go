package benchrec

import (
	"context"
	"fmt"
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

// Pinned matrix knobs. Warmup and measured counts match the paper's
// serving methodology (300 warmup, 200 measured — EXPERIMENTS.md).
const (
	matrixWarmup  = 300
	matrixMeasure = 200

	matrixApp     = "wordpress"
	matrixWorkers = 2

	// Scheduler scenario: a deep queue and a generous timeout keep shed
	// counts deterministically zero — overload behaviour is covered by
	// the serve package's own tests, not the trajectory.
	schedQueueDepth = 64
	schedTimeout    = 30 * time.Second

	// Cached scenario: 128 cached responses over 512 Zipf(1.0) pages.
	// The analytic steady-state top-128 share is ~80%; the recorded
	// ratio sits lower (~0.5) because the cache starts
	// cold, but the exact value is pinned by the seed.
	cacheCapacity = 128
	zipfPages     = 512
	zipfExponent  = 1.0

	// Cluster sweep: 1/2/4 single-worker backends behind the affinity
	// ring, sharing the SAME total cache budget and page universe as
	// cache_zipf so the aggregate hit ratio is directly comparable, over
	// a longer stream (the partitioned caches take longer to fill), on
	// the router's ring (cache.DefaultRingReplicas). No database stall:
	// each backend serves its share from one closed-loop client, so a
	// stall changes how long the run takes and nothing it records
	// (serve's TestClusterStallLeavesRecordUnchanged);
	// the I/O-overlap scaling claim is a host-clock one, gated by serve's
	// TestClusterDBWaitOverlaps.
	clusterWorkers = 1
	clusterMeasure = 400

	// Scripted scenario: the PHP blog script served page-keyed (uncached)
	// over the same Zipf page universe as cache_zipf, once on the
	// tree-walking interpreter and once on the bytecode engine. The pair
	// is the trajectory's view of the bytecode engine: same requests,
	// same pages, same output bytes, different execution engine.
	scriptedApp = "phpscript-blog"
)

// Options selects the base seed for one run.
type Options struct {
	// Seed is the base RNG seed (default 1, the seed EXPERIMENTS.md
	// figures use).
	Seed int64
}

func (o *Options) normalize() {
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// RunMatrix runs every scenario of the pinned matrix once and returns
// the resulting record with Seq 0 (the caller assigns the trajectory
// position).
//
// Determinism: every scenario drives the pool from a single closed-loop
// client (or the pool's own statically partitioned loop), so the
// per-worker request streams — and with them every simulated cost,
// cache outcome, and shed count — depend only on Seed.
func RunMatrix(opts Options) (Record, error) {
	opts.normalize()
	rec := Record{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seed:      opts.Seed,
	}

	for _, name := range ScenarioNames() {
		var (
			sc  Scenario
			err error
		)
		switch name {
		case "direct":
			sc, err = runDirect(opts, true)
		case "accel_off":
			sc, err = runDirect(opts, false)
		case "scheduler":
			sc, err = runScheduler(opts)
		case "cache_zipf":
			sc, err = runCacheZipf(opts)
		case "cluster_zipf_1":
			sc, err = runCluster(opts, 1)
		case "cluster_zipf_2":
			sc, err = runCluster(opts, 2)
		case "cluster_zipf_4":
			sc, err = runCluster(opts, 4)
		case "scripted_zipf_interp":
			sc, err = runScriptedZipf(opts, php.TierInterp)
		case "scripted_zipf":
			sc, err = runScriptedZipf(opts, php.TierBytecode)
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
// the on/off sweep. The operation trace counts events by kind and keeps
// none, as in phpserve.
func vmConfig(accelerated bool) vm.Config {
	name := "mitigated"
	if accelerated {
		name = "accelerated"
	}
	cfg, _ := vm.ConfigByName(name)
	cfg.TraceCapacity = -1
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
func baseScenario(workers, measure int, accelerated bool) Scenario {
	return Scenario{
		App:         matrixApp,
		Workers:     workers,
		Warmup:      matrixWarmup,
		Requests:    measure,
		Accelerated: accelerated,
	}
}

// simFields fills the simulated-cost fields from a merged meter: cycles
// from the dense category vector, energy from the meter's fixed-order
// total, the leaf rows from the profile builder, all reproducible bit
// for bit.
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
	p := profile.FromMeter(mt)
	sc.SimFnCycles = make(map[string]float64, len(p.Entries))
	for _, e := range p.Entries {
		sc.SimFnCycles[profile.RowKey(e.Name, e.Category)] = e.Cycles
	}
}

// runDirect is the direct pool loop (no scheduler): Pool.Run with the
// static request partition, accelerators on or off. The on/off pair is
// the trajectory's view of the EXPERIMENTS.md accelerator sweep.
func runDirect(opts Options, accelerated bool) (Scenario, error) {
	pool, err := workload.NewPool(matrixWorkers, vmConfig(accelerated), matrixApp, opts.Seed)
	if err != nil {
		return Scenario{}, err
	}
	// Warmup separately so the allocation window covers only the
	// measured phase.
	pool.Run(workload.LoadGenerator{Warmup: matrixWarmup}, 0)
	var res workload.Result
	allocs := measureAllocs(matrixMeasure, func() {
		res = pool.Run(workload.LoadGenerator{Requests: matrixMeasure}, 0)
	})

	sc := baseScenario(matrixWorkers, matrixMeasure, accelerated)
	sc.Served = res.Requests
	sc.AllocsPerOp = allocs
	sc.simFields(pool.MergedMeter(), res.Requests)
	return sc, nil
}

// runScheduler drives the measured phase through serve.Scheduler with a
// queue and timeout, from one closed-loop client (determinism: the FIFO
// free list rotates workers in a fixed order).
func runScheduler(opts Options) (Scenario, error) {
	pool, err := workload.NewPool(matrixWorkers, vmConfig(true), matrixApp, opts.Seed)
	if err != nil {
		return Scenario{}, err
	}
	pool.Run(workload.LoadGenerator{Warmup: matrixWarmup}, 0)
	s := serve.NewScheduler(pool, serve.Config{QueueDepth: schedQueueDepth, Timeout: schedTimeout})
	var ls serve.LoadStats
	allocs := measureAllocs(matrixMeasure, func() {
		ls = serve.RunLoad(context.Background(), s, serve.LoadOptions{Requests: matrixMeasure, Clients: 1})
	})

	sc := baseScenario(matrixWorkers, matrixMeasure, true)
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
func runCacheZipf(opts Options) (Scenario, error) {
	pool, err := workload.NewPoolSharedSeed(matrixWorkers, vmConfig(true), matrixApp, opts.Seed)
	if err != nil {
		return Scenario{}, err
	}
	pool.Run(workload.LoadGenerator{Warmup: matrixWarmup}, 0)
	s := serve.NewScheduler(pool, serve.Config{QueueDepth: schedQueueDepth, Timeout: schedTimeout})
	c := cache.New(cache.Config{Capacity: cacheCapacity})
	keys, err := workload.NewZipfKeys(opts.Seed, zipfExponent, zipfPages)
	if err != nil {
		return Scenario{}, err
	}
	var ls serve.LoadStats
	allocs := measureAllocs(matrixMeasure, func() {
		ls = serve.RunLoad(context.Background(), s, serve.LoadOptions{
			Requests: matrixMeasure,
			Clients:  1,
			Cache:    c,
			PageKey:  keys.Next,
		})
	})

	sc := baseScenario(matrixWorkers, matrixMeasure, true)
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
// servers behind the router, on loopback, serving the shared Zipf
// stream partitioned by key ownership. The 1/2/4 points committed
// together are the affinity claim: the aggregate hit ratio stays within
// a few points of the single-process figure (each page's cache entry
// lives on exactly one backend).
func runCluster(opts Options, backends int) (Scenario, error) {
	cl, err := serve.StartLoopback(backends, serve.ServerConfig{
		App:           matrixApp,
		Core:          "accelerated",
		Workers:       clusterWorkers,
		Seed:          opts.Seed,
		Warmup:        matrixWarmup,
		QueueDepth:    schedQueueDepth,
		Timeout:       schedTimeout,
		CacheCapacity: cacheCapacity,
		Pages:         zipfPages,
		ZipfS:         zipfExponent,
	}, serve.RouterConfig{})
	if err != nil {
		return Scenario{}, err
	}
	defer cl.Close()
	var cs serve.ClusterStats
	var runErr error
	allocs := measureAllocs(clusterMeasure, func() {
		cs, runErr = cl.RunZipf(context.Background(), clusterMeasure)
	})
	if runErr != nil {
		return Scenario{}, runErr
	}

	sc := baseScenario(clusterWorkers, clusterMeasure, true)
	sc.Clients = backends
	sc.Backends = backends
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
// response cache — every request renders) through the scheduler on the
// given engine. Warmup fills each worker's inline caches; the recorded
// inline-cache hits and leaf rows pin that state in the trajectory.
func runScriptedZipf(opts Options, mode php.TierMode) (Scenario, error) {
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
	pool.Run(workload.LoadGenerator{Warmup: matrixWarmup}, 0)
	s := serve.NewScheduler(pool, serve.Config{QueueDepth: schedQueueDepth, Timeout: schedTimeout})
	keys, err := workload.NewZipfKeys(opts.Seed, zipfExponent, zipfPages)
	if err != nil {
		return Scenario{}, err
	}
	var ls serve.LoadStats
	allocs := measureAllocs(matrixMeasure, func() {
		ls = serve.RunLoad(context.Background(), s, serve.LoadOptions{
			Requests: matrixMeasure,
			Clients:  1,
			PageKey:  keys.Next,
		})
	})

	sc := baseScenario(matrixWorkers, matrixMeasure, true)
	sc.App = scriptedApp
	sc.Clients = 1
	sc.QueueDepth = schedQueueDepth
	sc.TimeoutMS = float64(schedTimeout) / float64(time.Millisecond)
	sc.ZipfPages = zipfPages
	sc.ZipfS = zipfExponent
	sc.fillLoadStats(ls)
	sc.AllocsPerOp = allocs
	ps := pool.Snapshot()
	sc.simFields(ps.Meter, ls.Served)
	sc.Tier = ps.Tier.Mode
	sc.TierICHits = ps.Tier.ICHits
	return sc, nil
}

// fillLoadStats copies a RunLoad result's outcome counts into the
// scenario.
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
}
