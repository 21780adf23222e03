package main

import (
	"fmt"
	"strings"
)

// The run shape is identical for every workload; these constants are the
// only knobs and none of them is per-workload.
const (
	exactRequests  = 1000 // exact pass: 1 client, deterministic
	timedClients   = 2    // timed pass: closed loop, keep-alive
	tracedRequests = 2000 // traced pass: in-process, single goroutine
	setupRepeats   = 5    // spawn → ready cycles per run; setup_s is their median
	serverWarmup   = 300  // phpserve -warmup default (§5.1: 300 warm-up requests)
	serverCtxSw    = 64   // phpserve -ctxswitch default
	clusterPages   = 512  // page universe of cluster_cache
	clusterCache   = 64   // per-backend cache entries (128 over 512 pages)
	ringReplicas   = 2048 // phprouter -replicas default
	busyFracLimit  = 0.6  // generator CPU/wall above which the client is the limit
)

// workloadSpec names one traffic mix and the processes that serve it.
type workloadSpec struct {
	Name string
	Why  string

	App     string
	Config  string // phpserve -config
	Tier    string // phpserve -tier ("" leaves the tier plane off)
	Workers int    // workers per phpserve process
	Cluster bool   // phprouter in front of two cached backends
}

var workloads = []workloadSpec{
	{
		Name: "wp_accel", App: "wordpress", Config: "accelerated", Workers: 2,
		Why: "full WordPress render through vm, isa and all four core/* accelerator models plus sim.Meter and trace.Recorder; HTTP is a minor share (simulation-tax work shows here)",
	},
	{
		Name: "wp_soft", App: "wordpress", Config: "mitigated", Workers: 2,
		Why: "same requests and bytes with the accelerator models bypassed (strlib, regex, hashmap, heap): control for core/* changes and denominator of the simulation tax",
	},
	{
		Name: "script_blog", App: "phpscript-blog", Config: "accelerated", Tier: "auto", Workers: 2,
		Why: "only path that runs PHP source through internal/php; renders are cheap, so the HTTP and serve surface is over half of latency (value-model and serve-surface work shows here)",
	},
	{
		Name: "cluster_cache", App: "wordpress", Config: "accelerated", Workers: 1, Cluster: true,
		Why: "phprouter in front of 2 cached backends, client-seeded Zipf(1.0) over 512 pages: proxy, ring, cache reads and fills and evictions dominate; engine runs only on misses",
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// metricSpec declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen (0 for
// per-layer metrics, which carry no bound).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the server sees, as BENCHMARK.json
// lists them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},                // spawn of first process to every /healthz ready, median of 5 spawns (go build excluded)
	{"req_per_s", "1/s", "higher", 0.25},           // verified responses per second, closed loop, 2 clients, median of calm windows
	{"p50_ms", "ms", "lower", 0.25},                // client-observed latency median, median of calm windows
	{"server_cpu_us_per_req", "us", "lower", 0.25}, // utime+stime of all server processes per response, median of calm windows
	{"peak_rss_mb", "MB", "lower", 0.20},           // RSS summed over server processes, sampled every 100 ms: peak per window, median of calm windows
}

// failRatio is the sixth end-to-end metric: transport errors, non-200
// responses and body mismatches over requests attempted, exact and timed
// passes together. Its bound is absolute (+0.001). BENCHMARK.json cannot
// say that (a bound there is a share of the parent's median, and this
// median is 0), so the driver reads the ratio from the result line's
// attempted/failed pair; the table, -json and -selfcheck report it under
// its own name.
var failRatio = metricSpec{"fail_ratio", "ratio", "lower", 0.001}

// reported is what the table, -json and -selfcheck list as end to end.
var reported = append(endToEnd[:len(endToEnd):len(endToEnd)], failRatio)

// perLayer lists every per-layer metric by source (A socket residuals,
// B simulated clock and work counts, C host unit costs). A value of 0
// on a workload where the layer does not run means n/a.
var perLayer = []metricSpec{
	// A: socket residuals and process counters.
	{"p99_ms", "ms", "lower", 0},                      // client-observed p99 per timed window, median of calm windows; too unsteady on a shared host to carry a bound
	{"client.rtt_us", "us", "lower", 0},               // mean client time per request, exact pass
	{"phpserve.seen_us", "us", "lower", 0},            // mean of phpserve_request_latency_seconds over the exact pass
	{"phpserve.http_self_us", "us", "lower", 0},       // upstream-seen minus phpserve.seen_us (accept, parse, write, loopback)
	{"phprouter.hop_self_us", "us", "lower", 0},       // phprouter_backend_latency_seconds mean minus phpserve.seen_us
	{"phprouter.front_self_us", "us", "lower", 0},     // client.rtt_us minus router-seen backend latency (front HTTP, ring, page rewrite)
	{"serve.queue_wait_us", "us", "lower", 0},         // mean of phpserve_queue_wait_seconds over the exact pass
	{"phpserve.cpu_us_per_req", "us", "lower", 0},     // phpserve processes' share of server_cpu_us_per_req, timed pass
	{"phprouter.cpu_us_per_req", "us", "lower", 0},    // phprouter's share of server_cpu_us_per_req, timed pass
	{"phpserve.allocs_per_req", "count", "lower", 0},  // phpserve_go_allocs_per_request over the timed pass
	{"phpserve.alloc_bytes_per_req", "B", "lower", 0}, // phpserve_go_alloc_bytes_per_request over the timed pass
	{"cache.hit_ratio", "ratio", "higher", 0},         // hits / lookups over backends, exact pass
	{"cache.hits", "count", "higher", 0},              // response-cache hits, exact pass
	{"cache.misses", "count", "lower", 0},             // response-cache misses (fills), exact pass
	{"cache.coalesced", "count", "lower", 0},          // lookups that waited on another fill, exact pass
	{"cache.evictions", "count", "lower", 0},          // LRU evictions, exact pass
	{"cache.hit_p50_us", "us", "lower", 0},            // client latency median of X-Cache: HIT responses, exact pass
	{"cache.miss_p50_us", "us", "lower", 0},           // client latency median of X-Cache: MISS responses, exact pass
	{"serve.shed_total", "count", "lower", 0},         // sum of shed counters over all server processes, whole run
	{"client.busy_frac", "ratio", "lower", 0},         // generator CPU seconds per wall second, timed pass
	{"trace_overhead_frac", "ratio", "lower", 0},      // 1 - traced/untraced in-process throughput
	{"host.steal_frac", "ratio", "lower", 0},          // share of the guest's CPU time the hypervisor took, whole timed pass
	{"host.calm_windows", "count", "higher", 0},       // timed windows the end-to-end medians are taken from

	// B: simulated clock and work counts (exact per seed).
	{"sim.cycles_per_req", "cycles", "lower", 0},            // simulated cycles per request
	{"sim.energy_pj_per_req", "pJ", "lower", 0},             // simulated energy per request
	{"sim.cat.hash_cycles_per_req", "cycles", "lower", 0},   // simulated hash-category cycles per request
	{"sim.cat.heap_cycles_per_req", "cycles", "lower", 0},   // simulated heap-category cycles per request
	{"sim.cat.string_cycles_per_req", "cycles", "lower", 0}, // simulated string-category cycles per request
	{"sim.cat.regex_cycles_per_req", "cycles", "lower", 0},  // simulated regex-category cycles per request
	{"sim.cat.other_cycles_per_req", "cycles", "lower", 0},  // simulated other-category cycles per request
	{"sim.fn_count", "count", "lower", 0},                   // distinct (leaf function, category) rows on the meter
	{"sim.charges_per_req", "count", "lower", 0},            // meter charges (sum of FnStats.Calls) per request
	{"isa.accel_calls_per_req.hash", "count", "lower", 0},   // hardware hash table invocations per request
	{"isa.accel_calls_per_req.heap", "count", "lower", 0},   // hardware heap manager invocations per request
	{"isa.accel_calls_per_req.string", "count", "lower", 0}, // string accelerator invocations per request
	{"isa.accel_calls_per_req.regex", "count", "lower", 0},  // regexp accelerator invocations per request
	{"vm.hash_ops_per_req", "count", "lower", 0},            // hash get/set/delete/iterate trace events per request
	{"vm.alloc_ops_per_req", "count", "lower", 0},           // alloc+free trace events per request
	{"vm.str_ops_per_req", "count", "lower", 0},             // string-op trace events per request
	{"vm.str_bytes_per_req", "B", "lower", 0},               // subject bytes of string-op events per request
	{"vm.regex_scans_per_req", "count", "lower", 0},         // regex-scan trace events per request
	{"vm.regex_bytes_per_req", "B", "lower", 0},             // bytes scanned by regex-scan events per request
	{"trace.events_per_req", "count", "lower", 0},           // trace events of every kind per request

	// C: host unit costs, timed around public calls from benchmark/.
	{"workload.render_us", "us", "lower", 0},           // Worker.ServeOneCtx / ServePageSpanCtx span, traced pass
	{"serve.do_self_us", "us", "lower", 0},             // Scheduler.Do / DoCached span minus the render child
	{"workload.acquire_ns", "ns", "lower", 0},          // Pool.AcquireCtx + Release
	{"cache.getorfill_hit_ns", "ns", "lower", 0},       // Cache.GetOrFill on a resident key, real page bodies
	{"cache.getorfill_fill_ns", "ns", "lower", 0},      // Cache.GetOrFill on an absent key (fill + eviction)
	{"cache.ring_owner_ns", "ns", "lower", 0},          // Ring.Owner, 2 members x 2048 replicas
	{"obs.observe_ns", "ns", "lower", 0},               // Collector.ObserveHTTP, unsampled
	{"core.straccel.ns_per_kb", "ns/KB", "lower", 0},   // CPU.StrFind/Replace/HTMLEscape/ToLower/Trim over rendered pages, accelerated Features
	{"strlib.ns_per_kb", "ns/KB", "lower", 0},          // the same calls with software Features
	{"core.regexaccel.ns_per_kb", "ns/KB", "lower", 0}, // CPU.RegexFindAll/ReplaceAll/Sieve+Shadow over rendered pages, accelerated Features
	{"regex.ns_per_kb", "ns/KB", "lower", 0},           // the same calls with software Features
	{"core.hashtable.get_ns", "ns", "lower", 0},        // CPU.HashGet, keys <= 24 B, accelerated Features
	{"core.hashtable.set_ns", "ns", "lower", 0},        // CPU.HashSet, keys <= 24 B, accelerated Features
	{"hashmap.get_ns", "ns", "lower", 0},               // CPU.HashGet with software Features
	{"hashmap.set_ns", "ns", "lower", 0},               // CPU.HashSet with software Features
	{"core.heapmgr.malloc_free_ns", "ns", "lower", 0},  // CPU.Malloc+Free over the slab classes, accelerated Features
	{"heap.malloc_free_ns", "ns", "lower", 0},          // CPU.Malloc+Free with software Features
	{"sim.charge_ns", "ns", "lower", 0},                // Meter.AddUops cycling the workload's leaf-function names
	{"trace.record_ns", "ns", "lower", 0},              // Recorder.Record at capacity 4096
	{"arena.reset_ns", "ns", "lower", 0},               // Arena.Reset after one request's allocations
	{"php.parse_compile_us", "us", "lower", 0},         // php.Parse + php.Compile of the blog script
	{"php.run_interp_us", "us", "lower", 0},            // ScriptedApp.ServePage, tree-walking tier
	{"php.run_bytecode_us", "us", "lower", 0},          // ScriptedApp.ServePage, bytecode tier

	// share.<layer> = (B count x C unit cost) / workload.render_us.
	{"share.core.straccel", "ratio", "lower", 0},   // string accelerator model's share of render time
	{"share.strlib", "ratio", "lower", 0},          // software string library's share of render time
	{"share.core.regexaccel", "ratio", "lower", 0}, // regexp accelerator model's share of render time
	{"share.regex", "ratio", "lower", 0},           // software regex engine's share of render time
	{"share.core.hashtable", "ratio", "lower", 0},  // hardware hash table model's share of render time
	{"share.hashmap", "ratio", "lower", 0},         // software hash map's share of render time
	{"share.core.heapmgr", "ratio", "lower", 0},    // hardware heap manager model's share of render time
	{"share.heap", "ratio", "lower", 0},            // software slab allocator's share of render time
	{"share.sim", "ratio", "lower", 0},             // sim.Meter charging's share of render time
	{"share.trace", "ratio", "lower", 0},           // trace.Recorder's share of render time
	{"share.arena", "ratio", "lower", 0},           // arena reset's share of render time
	{"share.unattributed", "ratio", "lower", 0},    // 1 minus the shares above
}

// exactPerLayer reports whether a per-layer metric is a count the
// simulated machine or the exact pass produced (source B and the cache
// counts): -selfcheck demands those repeat bit for bit.
func exactPerLayer(name string) bool {
	switch name {
	case "cache.hit_ratio", "cache.hits", "cache.misses", "cache.coalesced", "cache.evictions", "trace.events_per_req":
		return true
	case "sim.charge_ns":
		return false
	}
	return strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "isa.") || strings.HasPrefix(name, "vm.")
}
