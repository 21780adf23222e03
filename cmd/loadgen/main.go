// Command loadgen drives the oss-performance-style load generator over
// one or more workloads and compares configurations side by side:
// baseline HHVM, prior-work mitigations, and the full accelerated core.
// With -workers N it serves the measured phase from a pool of N request
// workers in parallel (one runtime per worker, oss-performance style) and
// reports aggregate throughput and tail latency alongside the cycle table.
//
// Usage:
//
//	loadgen [-apps wordpress,drupal,mediawiki] [-requests 200] [-warmup 300]
//	        [-workers 1] [-concurrency 0] [-queue -1] [-timeout 0] [-breakdown]
//	        [-cache 0] [-cachettl 0] [-cacheshards 16] [-pages 512] [-zipf 1.0]
//	        [-traceout file] [-tracesample 0.05]
//
// With -breakdown (the default) each row is followed by the per-category
// cycle attribution — the paper's four accelerated activities plus the
// abstraction/kernel/other remainder — so a run shows *where* the cycles
// went, not just how many there were (the Fig. 5 view of the run), plus
// the Fig. 1 flat-profile headline (hottest function share, functions
// needed for 65% of cycles).
//
// With -queue >= 0 the measured phase runs through the serve.Scheduler
// request lifecycle instead of the direct pool loop: -concurrency
// closed-loop clients (default: one per worker) submit through a
// bounded admission queue with an optional per-request -timeout, and
// each row gains a "sched:" line reporting shed/timeout counts and
// queue-wait percentiles — overload is measured, not silent. Set
// -concurrency above workers+queue to force shedding on purpose.
//
// With -cache N the measured phase routes every request through a
// response cache of N entries in front of the scheduler (cache mode
// implies scheduler mode; -queue defaults to 64 if unset): each request
// draws a page identity from a Zipf(-zipf) distribution over -pages
// pages, hits are served without a worker, and each row gains a
// "cache:" line reporting the hit ratio and the hit-vs-miss latency
// split. The same seed drives the same page sequence for every config
// row, so hit ratios are reproducible and comparable.
//
// With -cluster N the measured phase runs the in-process FPM-style
// cluster instead: N backend stacks (pool + scheduler + response cache)
// behind a consistent-hash ring, each request routed to the backend
// that owns its page key — the same topology phprouter builds out of
// real processes. Cluster mode implies the cache (capacity defaults to
// 128 when -cache is unset); -dbwait adds a simulated per-render
// database stall held FPM-style on the worker, which is what lets N
// backends overlap I/O and scale on few cores. Each row reports cluster
// throughput, aggregate hit ratio, and the per-backend split.
//
// With -record the normal comparison run is replaced by the simulated-
// clock trajectory recorder: the pinned benchrec scenario matrix (direct
// pool loop, accelerator on/off, scheduler, cached Zipf, cluster sweep,
// scripted tier pair — all reusing the same serve.RunLoad plumbing as
// scheduler mode) runs once at -seed and one schema-versioned record is
// written to the next free BENCH_<n>.json under -recorddir. The record
// holds no host time (sh benchmark/run.sh measures that). `make
// bench-record` is this mode.
//
// Ctrl-C (SIGINT) stops admission, waits for in-flight requests, and
// prints the partial result for whatever completed instead of
// discarding the run.
//
// With -traceout the run additionally samples request span trees at
// -tracesample and writes the last runs' trees as Chrome trace_event
// JSON, loadable in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchrec"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// validateFlags fails fast on out-of-range flag values instead of
// silently clamping or panicking mid-run.
func validateFlags(requests, warmup, workers, concurrency, queue int, tracesample float64, timeout time.Duration) error {
	if requests <= 0 {
		return fmt.Errorf("loadgen: -requests must be positive, got %d", requests)
	}
	if warmup < 0 {
		return fmt.Errorf("loadgen: -warmup must be >= 0, got %d", warmup)
	}
	if workers <= 0 {
		return fmt.Errorf("loadgen: -workers must be positive, got %d", workers)
	}
	if concurrency < 0 {
		return fmt.Errorf("loadgen: -concurrency must be >= 0, got %d", concurrency)
	}
	if queue < -1 {
		return fmt.Errorf("loadgen: -queue must be >= -1, got %d", queue)
	}
	if tracesample < 0 || tracesample > 1 {
		return fmt.Errorf("loadgen: -tracesample must be in [0,1], got %g", tracesample)
	}
	if timeout < 0 {
		return fmt.Errorf("loadgen: -timeout must be >= 0, got %v", timeout)
	}
	return nil
}

func main() {
	apps := flag.String("apps", "wordpress,drupal,mediawiki", "comma-separated workloads")
	requests := flag.Int("requests", 200, "measured requests per run (total across workers)")
	warmup := flag.Int("warmup", 300, "warmup requests per worker (oss-performance default)")
	seed := flag.Int64("seed", 1, "workload seed (worker i uses seed+i)")
	workers := flag.Int("workers", 1, "request workers (independent runtimes)")
	concurrency := flag.Int("concurrency", 0, "direct mode: workers executing at once; scheduler mode: closed-loop clients (0 = one per worker)")
	queue := flag.Int("queue", -1, "run the measured phase through the request scheduler with this admission queue depth (-1 = direct pool loop)")
	timeout := flag.Duration("timeout", 0, "scheduler mode: per-request deadline from admission (0 disables)")
	breakdown := flag.Bool("breakdown", true, "print the per-category cycle breakdown and Fig. 1 profile line under each row")
	traceOut := flag.String("traceout", "", "write sampled request span trees as Chrome trace_event JSON to this file")
	traceSample := flag.Float64("tracesample", 0.05, "request sampling rate for -traceout trees")
	cacheCap := flag.Int("cache", 0, "route the measured phase through a response cache with this capacity (0 disables; implies scheduler mode)")
	cacheTTL := flag.Duration("cachettl", 0, "response cache entry time-to-live (0 never expires)")
	cacheShards := flag.Int("cacheshards", cache.DefaultShards, "response cache shard count (rounded up to a power of two)")
	pages := flag.Int("pages", 512, "distinct page identities requests draw from in cache mode")
	zipf := flag.Float64("zipf", 1.0, "Zipf popularity exponent for page identities in cache mode")
	cluster := flag.Int("cluster", 0, "run the measured phase on an in-process N-backend cluster behind a cache-affinity ring (0 disables; implies -cache)")
	dbwait := flag.Duration("dbwait", 0, "cluster mode: simulated per-render database stall held on the worker (0 disables)")
	record := flag.Bool("record", false, "run the pinned benchmark matrix and append a BENCH_<n>.json trajectory record instead of the comparison table")
	recordDir := flag.String("recorddir", ".", "directory trajectory records are read from and written to in -record mode")
	flag.Parse()

	if *record {
		if err := runRecord(*recordDir, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if err := validateFlags(*requests, *warmup, *workers, *concurrency, *queue, *traceSample, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err := cache.ValidateFlags(*cacheCap, *cacheShards, *pages, *cacheTTL, *zipf); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := validateClusterFlags(*cluster, *dbwait); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *cacheCap > 0 && *queue < 0 {
		// Cache mode rides the scheduler (Serve); give it the server's
		// default admission queue when the user didn't pick one.
		*queue = 64
	}

	// SIGINT stops admission: the running phase finishes its in-flight
	// requests, the partial result is printed, and no further
	// workload/config rows start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cluster > 0 {
		opts := serve.ClusterOptions{
			Backends:          *cluster,
			WorkersPerBackend: *workers,
			Seed:              *seed,
			QueueDepth:        *queue,
			Timeout:           *timeout,
			CacheCapacity:     *cacheCap,
			Pages:             *pages,
			ZipfS:             *zipf,
			DBWait:            *dbwait,
			RingReplicas:      512,
		}
		if opts.CacheCapacity == 0 {
			opts.CacheCapacity = 128 // cluster implies the cache; server default budget
		}
		if opts.QueueDepth < 0 {
			opts.QueueDepth = 64
		}
		if err := runClusterCompare(ctx, *apps, *requests, *warmup, *breakdown, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// With -traceout, a collector + tree ring samples span trees across
	// every run; the retained trees are exported once at the end.
	var treeRing *obs.TreeRing
	if *traceOut != "" {
		treeRing = obs.NewTreeRing(256)
	}

	fmt.Printf("%-12s %-12s %16s %14s %14s %10s %10s %9s %9s %9s\n",
		"workload", "config", "cycles/request", "uops/request", "energy uJ/req",
		"norm.time", "req/s", "p50", "p95", "p99")
	interrupted := false
loop:
	for _, appName := range strings.Split(*apps, ",") {
		appName = strings.TrimSpace(appName)
		var baseCycles float64
		for _, cfgName := range vm.ConfigNames {
			if ctx.Err() != nil {
				interrupted = true
				break loop
			}
			// Cache mode needs worker-independent page identity, so all
			// workers share one seed; otherwise keep per-worker seeds.
			newPool := workload.NewPool
			if *cacheCap > 0 {
				newPool = workload.NewPoolSharedSeed
			}
			pool, err := newPool(*workers, rowConfig(cfgName), appName, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			var col *obs.Collector
			if treeRing != nil {
				col = obs.NewCollector(*traceSample, nil, nil)
				col.SetTreeRing(treeRing)
				pool.SetCollector(col)
			}
			const ctxSwitchEvery = 64
			pool.RunCtx(ctx, workload.LoadGenerator{Warmup: *warmup, ContextSwitchEvery: ctxSwitchEvery}, 0)

			// The measured phase is the direct pool loop, or with -queue
			// the same requests through the full request lifecycle.
			var res workload.Result
			var ls serve.LoadStats
			var rc *cache.Cache
			measured := func() {
				res = pool.RunCtx(ctx, workload.LoadGenerator{Requests: *requests, ContextSwitchEvery: ctxSwitchEvery}, *concurrency)
			}
			if *queue >= 0 {
				sched := serve.NewScheduler(pool, serve.Config{QueueDepth: *queue, Timeout: *timeout, CtxSwitchEvery: ctxSwitchEvery})
				opts := serve.LoadOptions{
					Requests:  *requests,
					Clients:   *concurrency,
					Collector: col,
					// Explicit source: error samples carry greppable
					// request IDs even when tracing is off.
					IDs: obs.NewIDSource(),
				}
				if *cacheCap > 0 {
					// Fresh cache and page sequence per row, same seed
					// everywhere: hit ratios are reproducible and every
					// config row replays the identical request stream.
					rc = cache.New(cache.Config{Capacity: *cacheCap, Shards: *cacheShards, TTL: *cacheTTL})
					keys, kerr := workload.NewZipfKeys(*seed, *zipf, *pages)
					if kerr != nil {
						fmt.Fprintln(os.Stderr, kerr)
						os.Exit(2)
					}
					opts.Cache = rc
					opts.PageKey = keys.Next
				}
				measured = func() { ls = serve.RunLoad(ctx, sched, opts) }
			}
			// Bracket only the measured phase with GC'd MemStats reads so
			// the breakdown's memory line reports steady-state Go
			// allocations per request, not warmup or setup churn.
			var memBefore, memAfter runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&memBefore)
			measured()
			runtime.GC()
			runtime.ReadMemStats(&memAfter)
			if *queue >= 0 {
				res = pool.GatherResult(ls.Wall)
			}
			if ctx.Err() != nil {
				interrupted = true
			}
			if cfgName == vm.ConfigNames[0] {
				baseCycles = res.Cycles
			}
			norm := "n/a"
			if baseCycles > 0 && res.Cycles > 0 {
				norm = fmt.Sprintf("%.2f%%", 100*res.Cycles/baseCycles)
			}
			if res.Requests == 0 {
				fmt.Printf("%-12s %-12s  (no requests completed)\n", appName, cfgName)
				continue
			}
			fmt.Printf("%-12s %-12s %16.0f %14.0f %14.2f %10s %10.0f %9s %9s %9s\n",
				appName, cfgName,
				res.CyclesPerRequest(),
				res.Uops/float64(res.Requests),
				res.EnergyPJ/float64(res.Requests)/1e6,
				norm,
				res.Throughput(),
				fmtLatency(res.Latency.P50),
				fmtLatency(res.Latency.P95),
				fmtLatency(res.Latency.P99))
			if *queue >= 0 {
				fmt.Printf("  %-10s %s\n", "", schedLine(ls))
				if line := errorLine(ls); line != "" {
					fmt.Printf("  %-10s %s\n", "", line)
				}
			}
			if rc != nil {
				fmt.Printf("  %-10s %s\n", "", cacheLine(ls, rc))
			}
			if *breakdown {
				fmt.Printf("  %-10s %s\n", "", breakdownLine(res))
				fmt.Printf("  %-10s %s\n", "", memLine(res, memBefore, memAfter))
				fmt.Printf("  %-10s %s\n", "", fig1Line(pool))
			}
		}
	}
	if interrupted {
		fmt.Println("loadgen: interrupted — partial results above cover requests that completed before Ctrl-C")
	}

	if treeRing != nil {
		if err := writeTraceFile(*traceOut, treeRing); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d span trees to %s (open in chrome://tracing or ui.perfetto.dev)\n",
			len(treeRing.Last(0)), *traceOut)
	}
}

// rowConfig is one comparison row's core configuration, untraced: the
// tables read meters, never the operation trace.
func rowConfig(name string) vm.Config {
	cfg, _ := vm.ConfigByName(name) // callers range over vm.ConfigNames
	cfg.TraceCapacity = -1
	return cfg
}

// validateClusterFlags checks the -cluster flag family.
func validateClusterFlags(cluster int, dbwait time.Duration) error {
	if cluster < 0 {
		return fmt.Errorf("loadgen: -cluster must be >= 0, got %d", cluster)
	}
	if dbwait < 0 {
		return fmt.Errorf("loadgen: -dbwait must be >= 0, got %v", dbwait)
	}
	if dbwait > 0 && cluster == 0 {
		return fmt.Errorf("loadgen: -dbwait requires -cluster")
	}
	return nil
}

// runClusterCompare is -cluster mode: for each workload and config row,
// build an in-process cluster from opts (App and Config are the row's),
// warm every backend, replay the shared Zipf stream partitioned by ring
// owner, and report cluster throughput with the per-backend split.
func runClusterCompare(ctx context.Context, apps string, requests, warmup int, breakdown bool, opts serve.ClusterOptions) error {
	fmt.Printf("cluster: %d backends x %d workers, cache %d total, %d pages zipf %.2f, dbwait %v\n",
		opts.Backends, opts.WorkersPerBackend, opts.CacheCapacity, opts.Pages, opts.ZipfS, opts.DBWait)
	fmt.Printf("%-12s %-12s %10s %10s %9s %9s %9s %16s\n",
		"workload", "config", "req/s", "hit ratio", "p50", "p95", "p99", "sim cycles/req")
	for _, appName := range strings.Split(apps, ",") {
		appName = strings.TrimSpace(appName)
		for _, cfgName := range vm.ConfigNames {
			if ctx.Err() != nil {
				fmt.Println("loadgen: interrupted")
				return nil
			}
			opts.App, opts.Config = appName, rowConfig(cfgName)
			cl, err := serve.NewCluster(opts)
			if err != nil {
				return err
			}
			cl.Warm(warmup)
			cs, err := cl.RunZipf(ctx, requests)
			if err != nil {
				return err
			}
			agg := cs.Aggregate
			if agg.Served == 0 {
				fmt.Printf("%-12s %-12s  (no requests completed)\n", appName, cfgName)
				continue
			}
			mt := cl.MergedMeter()
			fmt.Printf("%-12s %-12s %10.0f %10.3f %9s %9s %9s %16.0f\n",
				appName, cfgName,
				float64(agg.Served)/agg.Wall.Seconds(),
				agg.CacheHitRatio(),
				fmtLatency(agg.Latency.P50), fmtLatency(agg.Latency.P95), fmtLatency(agg.Latency.P99),
				mt.CategoryCyclesVec().Total()/float64(agg.Served))
			if breakdown {
				var b strings.Builder
				b.WriteString("backends:")
				for _, pb := range cs.PerBackend {
					fmt.Fprintf(&b, "  [%s] %d reqs %d pages hit %.3f",
						pb.ID, pb.Load.Served, pb.Pages, pb.Load.CacheHitRatio())
				}
				fmt.Printf("  %-10s %s\n", "", b.String())
			}
		}
	}
	return nil
}

// runRecord is -record mode: run the pinned matrix and append the next
// trajectory record. Sequence numbers are monotonic — the new record is
// LatestSeq+1 and Write refuses to overwrite.
func runRecord(dir string, seed int64) error {
	latest, err := benchrec.LatestSeq(dir)
	if err != nil {
		return err
	}
	fmt.Printf("recording benchmark matrix (seed %d)...\n", seed)
	rec, err := benchrec.RunMatrix(benchrec.Options{Seed: seed})
	if err != nil {
		return err
	}
	rec.Seq = latest + 1
	path, err := benchrec.Write(dir, rec)
	if err != nil {
		return err
	}
	for _, sc := range rec.Scenarios {
		fmt.Printf("  %-20s %10.0f sim cycles/req  hit ratio %.3f  %8.2f allocs/op\n",
			sc.Name, sc.SimCyclesPerReq, sc.CacheHitRatio, sc.AllocsPerOp)
	}
	fmt.Printf("wrote %s (seq %d)\n", path, rec.Seq)
	return nil
}

// schedLine renders one scheduler-mode run's lifecycle outcomes: how
// much was shed and why, and what the admission queue cost the requests
// that made it through.
func schedLine(ls serve.LoadStats) string {
	return fmt.Sprintf("sched: served %d/%d, shed %d (overload %d, timeout %d, canceled %d, draining %d), queue-wait p50 %s p95 %s p99 %s",
		ls.Served, ls.Submitted, ls.Shed(), ls.ShedOverload, ls.ShedDeadline, ls.ShedCanceled, ls.ShedDraining,
		fmtLatency(ls.QueueWait.P50), fmtLatency(ls.QueueWait.P95), fmtLatency(ls.QueueWait.P99))
}

// errorLine names a sample of failed submissions by correlation ID, so
// an operator can grep the run's access log (or a cluster's logs) for
// exactly those requests. Empty when nothing failed.
func errorLine(ls serve.LoadStats) string {
	if len(ls.ErrorSamples) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("errors (sampled ids):")
	for _, es := range ls.ErrorSamples {
		fmt.Fprintf(&b, "  %s=%v", es.ID, es.Err)
	}
	return b.String()
}

// cacheLine renders one cache-mode run's outcomes: the hit ratio, the
// outcome counts, and the latency split that shows what a hit buys —
// cached answers skip both the queue and the render.
func cacheLine(ls serve.LoadStats, rc *cache.Cache) string {
	cs := rc.Stats()
	return fmt.Sprintf("cache: hit ratio %.3f (%d hits, %d misses, %d coalesced, %d evictions), hit p50 %s p95 %s vs miss p50 %s p95 %s",
		ls.CacheHitRatio(), ls.CacheHits, ls.CacheMisses, ls.CacheCoalesced, cs.Evictions,
		fmtLatency(ls.HitLatency.P50), fmtLatency(ls.HitLatency.P95),
		fmtLatency(ls.MissLatency.P50), fmtLatency(ls.MissLatency.P95))
}

// fig1Line renders the run's flat-profile headline — the paper's Fig. 1
// numbers (hottest-function share, functions covering 65% of cycles) —
// from the pool's merged meter.
func fig1Line(pool *workload.Pool) string {
	p := profile.FromMeter(pool.MergedMeter())
	hottest := "-"
	if p.NumFunctions() > 0 {
		hottest = p.Entries[0].Name
	}
	return fmt.Sprintf("fig1: hottest %s %.1f%%, %d functions for 65%% of cycles (%d total)",
		hottest, 100*p.HottestFrac(), p.FuncsForFrac(0.65), p.NumFunctions())
}

// writeTraceFile exports the retained span trees as trace_event JSON.
func writeTraceFile(path string, ring *obs.TreeRing) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, ring.Last(0)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdownLine renders the per-category cycle shares of one run,
// skipping categories the configuration eliminated (e.g. refcount under
// hardware reference counting).
func breakdownLine(res workload.Result) string {
	var b strings.Builder
	b.WriteString("breakdown:")
	for _, c := range sim.Categories() {
		share := res.CategoryShare(c)
		if share == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s %.1f%%", c, 100*share)
	}
	return b.String()
}

// memLine renders the measured phase's Go-heap allocation rate — the
// operational check on the arena-backed serve path (near zero in steady
// state). Deltas come from GC'd MemStats reads bracketing the phase.
func memLine(res workload.Result, before, after runtime.MemStats) string {
	if res.Requests == 0 {
		return "memory: n/a"
	}
	n := float64(res.Requests)
	return fmt.Sprintf("memory: %.2f allocs/req, %.0f B/req heap",
		float64(after.Mallocs-before.Mallocs)/n,
		float64(after.TotalAlloc-before.TotalAlloc)/n)
}

// fmtLatency renders a latency compactly (µs below 10ms, ms above).
func fmtLatency(d time.Duration) string {
	if d < 10*time.Millisecond {
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
