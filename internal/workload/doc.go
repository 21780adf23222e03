// Package workload holds the synthetic applications and the serving
// harness that drive the simulated runtime the way oss-performance
// drives HHVM in the paper's evaluation (§5.1).
//
// It has three layers:
//
//   - Applications. App implementations (wordpress, drupal, mediawiki
//     and the SPECWeb-like hotspots) are
//     deterministic request generators calibrated to the paper's
//     measured activity mix — hash/heap/string/regex traffic per page,
//     key-size and SET-ratio distributions, the Fig. 11 texturize chain.
//     ByName constructs one.
//
//   - Load generation. A LoadGenerator names a warmup (costs discarded,
//     accelerator state kept warm) and a measured phase; Pool.Run
//     serves it — a serial run is a one-worker pool — producing a
//     Result: simulated cycles/µops/energy, per-category cycle
//     breakdown and hash-key statistics. Host time is not a Result
//     field: it is measured over real sockets by benchmark/.
//
//   - Serving. Pool owns N Workers, each with a private vm.Runtime, and
//     hands them out one goroutine at a time (Acquire/Release); Pool.Run
//     statically partitions a measured run across workers so simulated
//     metrics stay deterministic under concurrency. Fleet totals are
//     produced by merging per-worker meters and traces (Pool.Snapshot,
//     sim.Meter.Merge, trace.Recorder.Merge). A serving path that
//     profiles a request (Worker.ServePageSpanCtx) gets back its
//     category-attribution span tree; the server samples which requests
//     are profiled and hands each span to its obs.Collector.
package workload
