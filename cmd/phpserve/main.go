// Command phpserve exposes a simulated PHP workload over HTTP, the way
// the paper's evaluation serves WordPress/Drupal/MediaWiki from a pool
// of HHVM request workers behind a web frontend (§5.1). Each incoming
// request goes through the serve.Scheduler request lifecycle — bounded
// admission queue, per-request deadline, overload shedding (503 +
// Retry-After when the queue is full or the server is draining, 504
// when the deadline expires first), graceful drain on SIGTERM/SIGINT —
// before rendering on a free worker (its own vm.Runtime). With -cache,
// a sharded TTL'd response cache with request coalescing sits between
// admission and worker acquisition: hits are answered without consuming
// a worker slot (the X-Cache header says HIT, MISS, or COALESCED), each
// request renders a stable page identity drawn from a Zipf popularity
// distribution (or forced with ?page=N), and hits charge a fixed
// simulated lookup cost so the /metrics category totals stay exact. The
// server carries the full observability stack: /stats for a human-readable
// JSON snapshot, /metrics in Prometheus text format (per-category cycle
// counters, latency + queue-wait histograms, shed counters, accelerator
// and cache counters), sampled per-request attribution spans written to
// a JSON-lines access log (sheds always logged), request-scoped span
// trees exported on /tracez (Chrome trace_event JSON or folded
// flamegraph stacks) with queue time as a "queued" span, a live
// windowed flat profile on /profilez, and optional net/http/pprof
// endpoints.
//
// Scripted workloads (apps backed by actual PHP source, e.g.
// phpscript-blog) additionally support a bytecode execution tier:
// -tier selects interp, auto (profile-guided promotion of hot
// functions to bytecode mid-run), or bytecode, and /tierz plus the
// phpserve_tier_* metric series expose per-function promotion state,
// call counts per tier, and inline-cache effectiveness aggregated
// across the pool.
//
// Usage:
//
//	phpserve [-addr :8080] [-app wordpress] [-config accelerated]
//	         [-workers 4] [-seed 1] [-warmup 300] [-ctxswitch 64]
//	         [-queue 64] [-timeout 0] [-drain 30s] [-arenacap 0]
//	         [-cache 0] [-cachettl 0] [-cacheshards 16]
//	         [-pages 512] [-zipf 1.0]
//	         [-sample 0.01] [-accesslog path|-] [-pprof] [-tracebuf 4096]
//	         [-treering 64] [-profepochs 16] [-tier interp|auto|bytecode]
//
// Endpoints:
//
//	GET /             render one page on a free worker (503/504 under overload)
//	GET /?page=N      render page N, cached or not (400 unless N is a non-negative integer)
//	GET /stats        JSON fleet statistics
//	GET /metrics      Prometheus text-format metrics
//	GET /tracez       last sampled span trees (trace_event JSON, folded, text)
//	GET /profilez     live windowed flat profile (table, folded, JSON)
//	GET /tierz        bytecode-tier state for scripted workloads (table, JSON)
//	GET /healthz      readiness: queue depth and drain state (503 while draining)
//	GET /debug/pprof/ Go profiling (only with -pprof)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/php"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// server routes requests through the scheduler's lifecycle to pool
// workers and aggregates serving-side statistics across all of them
// through an obs.Collector.
type server struct {
	sched        *serve.Scheduler
	pool         *workload.Pool
	col          *obs.Collector
	app          string
	config       string
	pprofEnabled bool
	start        time.Time

	// tier is the configured script execution tier ("" when the tier
	// plane is off — non-scripted workload or no -tier flag). Set once
	// at startup; /tierz and the phpserve_tier_* series activate on it.
	tier string

	// ids mints request correlation IDs for requests that arrive without
	// an X-Request-Id (standalone mode; behind phprouter the router's ID
	// wins so one ID spans both processes).
	ids *obs.IDSource

	// backendID is this process's cluster identity (-fpm/-backend), or
	// -1 standalone; it stamps the X-Backend header, /healthz, and the
	// access log so multi-process setups can tell processes apart.
	backendID int
	// dbWait is the simulated per-render database stall (-dbwait): the
	// worker is held for it, FPM-style, so backends model I/O-bound
	// pages. Zero disables it.
	dbWait time.Duration

	// cache and pageKeys are non-nil only with -cache: the response
	// cache in front of the pool and the server-side Zipf sampler that
	// assigns each request its page identity (unless ?page= names one).
	cache    *cache.Cache
	pageKeys *workload.ZipfKeys

	// memMu guards the MemStats baseline behind the
	// phpserve_go_allocs_per_request gauges: each /metrics scrape reports
	// the Go-heap allocation rate over the requests served since the
	// previous scrape, measured after the Pool.Snapshot barrier so
	// in-flight renders are included in both deltas.
	memMu           sync.Mutex
	prevMallocs     uint64
	prevTotalAlloc  uint64
	prevRequests    int64
	memInitialized  bool
	allocsPerReq    float64
	allocBytesPerRq float64

	// live is the windowed flat profile behind /profilez and the
	// phpserve_profile_* gauges. Every scrape rotates a new epoch from a
	// coherent pool snapshot; liveMu serializes rotations (profile.Live
	// itself is not safe for concurrent use).
	liveMu sync.Mutex
	live   *profile.Live
}

func newServer(sched *serve.Scheduler, col *obs.Collector, app, config string) *server {
	return &server{
		sched:     sched,
		pool:      sched.Pool(),
		col:       col,
		ids:       obs.NewIDSource(),
		app:       app,
		config:    config,
		start:     time.Now(),
		backendID: -1,
		live:      profile.NewLive(0, time.Now()),
	}
}

// backendLabel is the access-log/healthz form of the backend identity:
// the id in cluster mode, "-" standalone.
func (s *server) backendLabel() string {
	if s.backendID < 0 {
		return "-"
	}
	return strconv.Itoa(s.backendID)
}

// stampBackend adds the X-Backend header in cluster mode so responses
// (and the router's view of them) name the process that served them.
func (s *server) stampBackend(w http.ResponseWriter) {
	if s.backendID >= 0 {
		w.Header().Set("X-Backend", strconv.Itoa(s.backendID))
	}
}

// requestID resolves a render's correlation ID — the inbound
// X-Request-Id (sanitized) when a router or client sent one, else a
// locally minted ID — and echoes it on the response so the client (and
// the router's access log, and this process's, and the trace tree) all
// name the request the same way.
func (s *server) requestID(w http.ResponseWriter, r *http.Request) string {
	rid := obs.SanitizeRequestID(r.Header.Get(obs.HeaderRequestID))
	if rid == "" {
		rid = s.ids.Next()
	}
	w.Header().Set(obs.HeaderRequestID, rid)
	return rid
}

// markSampled stamps a retained span tree with the request ID and
// signals the upstream router via X-Trace-Sampled that a tree exists to
// stitch. Must run before the response body is written: the collector
// adds the tree to the ring first, so the router's post-response
// /tracez fetch always finds it.
func (s *server) markSampled(w http.ResponseWriter, tree *obs.Tree, rid string) {
	if tree == nil {
		return
	}
	tree.SetID(rid)
	w.Header().Set(obs.HeaderTraceSampled, "1")
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleRender)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/profilez", s.handleProfilez)
	mux.HandleFunc("/tierz", s.handleTierz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.pprofEnabled {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// respBufs recycles uncached-path response buffers. A render's bytes
// are worker-owned and invalidated as soon as the scheduler releases
// the worker, so Serve copies them into a pooled buffer while the worker
// is still held, the handler writes the response from the copy and
// returns the buffer for the next request — no per-request allocation,
// no aliasing of recycled render memory.
var respBufs = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// handleRender is the one render handler: it turns the HTTP request
// into a serve.Request — page identity from ?page=N (400 when
// malformed), else a server-side Zipf draw with -cache, else the
// worker's next request — and lets Scheduler.Serve do the rest. With
// -cache the outcome is surfaced in the X-Cache header, and a hit or a
// coalesced wait never took a worker.
func (s *server) handleRender(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	rid := s.requestID(w, r)
	page, err := serve.ParsePage(r.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if page < 0 && s.pageKeys != nil {
		page = s.pageKeys.Next()
	}
	bufp := respBufs.Get().(*[]byte)
	defer respBufs.Put(bufp)
	resp, err := s.sched.Serve(r.Context(), serve.Request{
		Page:    page,
		Profile: s.col.ShouldSample(),
		Cache:   s.cache,
		Stall:   s.dbWait,
	}, bufp)
	meta := obs.RequestMeta{
		Path:      r.URL.RequestURI(),
		UserAgent: r.UserAgent(),
		RequestID: rid,
		QueueWait: resp.Wait,
	}
	if err != nil {
		s.shedResponse(w, err, meta)
		return
	}
	s.markSampled(w, resp.Span.Tree, rid)
	meta.Status = http.StatusOK
	s.col.ObserveHTTP(resp.Span, len(resp.Body), meta)

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if s.cache != nil {
		w.Header().Set("X-Cache", strings.ToUpper(resp.Cache.String()))
	}
	s.stampBackend(w)
	w.Write(resp.Body)
}

// retryAfterSeconds is the Retry-After hint on 503 sheds: long enough
// for a queue-full burst to clear, short enough that clients come back
// while a drain is still the likelier cause of free capacity elsewhere.
const retryAfterSeconds = 1

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the server produced a response. The status is
// never seen by that client (it is gone) — it exists for the access log
// and metrics, so abandoned requests stop masquerading as 504 timeouts.
const statusClientClosedRequest = 499

// shedAnswers is each failed outcome's access-log label and HTTP status:
// 503 for overload and drain (retryable, sent with Retry-After), 504 for
// an expired deadline, 499 for a client that disconnected first, 500
// for a render that failed.
var shedAnswers = map[serve.Outcome]struct {
	label  string
	status int
}{
	serve.OutcomeOverload: {"shed_overload", http.StatusServiceUnavailable},
	serve.OutcomeDraining: {"draining", http.StatusServiceUnavailable},
	serve.OutcomeDeadline: {"timeout", http.StatusGatewayTimeout},
	serve.OutcomeCanceled: {"canceled", statusClientClosedRequest},
	serve.OutcomeError:    {"error", http.StatusInternalServerError},
}

// shedResponse answers a request the serve layer did not serve and
// records it in the collector (counter + access log line).
func (s *server) shedResponse(w http.ResponseWriter, err error, meta obs.RequestMeta) {
	a := shedAnswers[serve.OutcomeOf(err)]
	if a.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	meta.Outcome, meta.Status = a.label, a.status
	s.col.ObserveShed(meta)
	http.Error(w, err.Error(), a.status)
}

// healthzResponse is the /healthz JSON shape: readiness plus the queue
// signals a load balancer or operator needs to interpret it.
type healthzResponse struct {
	Status      string `json:"status"` // ready | draining | drained
	Ready       bool   `json:"ready"`
	Backend     string `json:"backend"` // cluster backend id, "-" standalone
	Workers     int    `json:"workers"`
	WorkersBusy int    `json:"workers_busy"`
	QueueDepth  int    `json:"queue_depth"`
	QueueLimit  int    `json:"queue_limit"`
	ShedTotal   int64  `json:"shed_total"`
}

// handleHealthz reports readiness: 200 with status "ready" while
// admitting, 503 once draining starts so load balancers stop routing
// here while in-flight requests finish.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state := s.sched.State()
	st := s.sched.Stats()
	resp := healthzResponse{
		Status:      state.String(),
		Ready:       state == serve.StateRunning,
		Backend:     s.backendLabel(),
		Workers:     s.pool.Size(),
		WorkersBusy: s.pool.Size() - s.pool.Idle(),
		QueueDepth:  s.sched.QueueDepth(),
		QueueLimit:  s.sched.QueueLimit(),
		ShedTotal:   st.Shed(),
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	obs.WriteJSON(w, status, resp)
}

// statsResponse is the /stats JSON shape. Latencies are reported in
// microseconds; simulated totals cover the whole fleet since startup.
type statsResponse struct {
	App            string  `json:"app"`
	Config         string  `json:"config"`
	Workers        int     `json:"workers"`
	Requests       int64   `json:"requests"`
	SampledSpans   int64   `json:"sampled_spans"`
	ResponseBytes  int64   `json:"response_bytes"`
	UptimeSec      float64 `json:"uptime_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`

	State        string `json:"state"`
	QueueDepth   int    `json:"queue_depth"`
	QueueLimit   int    `json:"queue_limit"`
	ShedOverload int64  `json:"shed_overload"`
	ShedTimeout  int64  `json:"shed_timeout"`
	ShedCanceled int64  `json:"shed_canceled"`
	ShedDraining int64  `json:"shed_draining"`

	LatencyP50Us  int64 `json:"latency_p50_us"`
	LatencyP95Us  int64 `json:"latency_p95_us"`
	LatencyP99Us  int64 `json:"latency_p99_us"`
	LatencyMaxUs  int64 `json:"latency_max_us"`
	LatencyMeanUs int64 `json:"latency_mean_us"`

	SimCycles        float64 `json:"sim_cycles"`
	SimUops          float64 `json:"sim_uops"`
	SimEnergyPJ      float64 `json:"sim_energy_pj"`
	CyclesPerRequest float64 `json:"cycles_per_request"`

	SimCategoryCycles map[string]float64 `json:"sim_category_cycles"`
	SimCategoryShare  map[string]float64 `json:"sim_category_share"`

	HashTableHitRatio  float64 `json:"hashtable_hit_ratio"`
	HashMapRebuilds    int64   `json:"hashmap_rebuilds"`
	RegexCacheHitRatio float64 `json:"regex_cache_hit_ratio"`

	// Cache is present only when the response cache is enabled (-cache).
	Cache *cacheStatsResponse `json:"cache,omitempty"`
}

// cacheStatsResponse is the /stats response-cache block.
type cacheStatsResponse struct {
	Capacity  int     `json:"capacity"`
	Shards    int     `json:"shards"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	Evictions int64   `json:"evictions"`
	Expired   int64   `json:"expired"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRatio  float64 `json:"hit_ratio"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.col.Snapshot()
	lat := workload.LatencyStatsFrom(snap.Latencies)
	// Pool.Snapshot drains the free list, so it also acts as a barrier:
	// in-flight renders finish before their costs are aggregated. The
	// cache's fixed lookup charges merge into the same meter so the
	// category totals cover hits too.
	ps := s.pool.Snapshot()
	if s.cache != nil {
		s.cache.MergeMeter(ps.Meter)
	}
	cats := ps.Meter.CategoryCyclesVec()
	total := cats.Total()

	up := time.Since(s.start).Seconds()
	sched := s.sched.Stats()
	resp := statsResponse{
		App:               s.app,
		Config:            s.config,
		Workers:           s.pool.Size(),
		State:             s.sched.State().String(),
		QueueDepth:        s.sched.QueueDepth(),
		QueueLimit:        s.sched.QueueLimit(),
		ShedOverload:      sched.ShedOverload,
		ShedTimeout:       sched.ShedDeadline,
		ShedCanceled:      sched.ShedCanceled,
		ShedDraining:      sched.ShedDraining,
		Requests:          snap.Requests,
		SampledSpans:      snap.SampledSpans,
		ResponseBytes:     snap.ResponseBytes,
		UptimeSec:         up,
		LatencyP50Us:      lat.P50.Microseconds(),
		LatencyP95Us:      lat.P95.Microseconds(),
		LatencyP99Us:      lat.P99.Microseconds(),
		LatencyMaxUs:      lat.Max.Microseconds(),
		LatencyMeanUs:     lat.Mean.Microseconds(),
		SimCycles:         total,
		SimUops:           ps.Meter.TotalUops(),
		SimEnergyPJ:       ps.Meter.TotalEnergy(),
		SimCategoryCycles: make(map[string]float64, sim.NumCategories),
		SimCategoryShare:  make(map[string]float64, sim.NumCategories),
		HashMapRebuilds:   ps.Accel.MapRebuilds,
	}
	if up > 0 {
		resp.RequestsPerSec = obs.Finite(float64(snap.Requests) / up)
	}
	if snap.Requests > 0 {
		resp.CyclesPerRequest = obs.Finite(total / float64(snap.Requests))
	}
	for _, c := range sim.Categories() {
		resp.SimCategoryCycles[c.String()] = cats[c]
		if total > 0 {
			resp.SimCategoryShare[c.String()] = obs.Finite(cats[c] / total)
		} else {
			resp.SimCategoryShare[c.String()] = 0
		}
	}
	resp.HashTableHitRatio = obs.Finite(ps.Accel.HashTable.HitRate())
	if ps.Accel.RegexLookups > 0 {
		resp.RegexCacheHitRatio = obs.Finite(float64(ps.Accel.RegexHits) / float64(ps.Accel.RegexLookups))
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.Cache = &cacheStatsResponse{
			Capacity:  s.cache.Capacity(),
			Shards:    s.cache.Shards(),
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Coalesced: cs.Coalesced,
			Evictions: cs.Evictions,
			Expired:   cs.Expired,
			Entries:   cs.Entries,
			Bytes:     cs.Bytes,
			HitRatio:  obs.Finite(cs.HitRatio()),
		}
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the Prometheus text-format exposition. Every
// series it exports is documented in docs/OPERATIONS.md.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.col.Snapshot()
	lat := workload.LatencyStatsFrom(snap.Latencies)
	ps := s.pool.Snapshot()
	if s.cache != nil {
		// Lookup charges land in the same meter, so the per-category
		// cycle totals stay exact with the cache on.
		s.cache.MergeMeter(ps.Meter)
	}
	cats := ps.Meter.CategoryCyclesVec()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := obs.NewEncoder(w)
	base := []obs.Label{{Name: "app", Value: s.app}, {Name: "config", Value: s.config}}

	e.Counter("phpserve_requests_total",
		"Requests served since startup.",
		obs.Sample{Labels: base, Value: float64(snap.Requests)})
	e.Counter("phpserve_response_bytes_total",
		"Response body bytes written since startup.",
		obs.Sample{Labels: base, Value: float64(snap.ResponseBytes)})
	e.Counter("phpserve_sampled_spans_total",
		"Requests that carried a per-request attribution span.",
		obs.Sample{Labels: base, Value: float64(snap.SampledSpans)})
	e.Gauge("phpserve_uptime_seconds",
		"Seconds since the server started.",
		obs.Sample{Value: time.Since(s.start).Seconds()})
	e.Gauge("phpserve_workers",
		"Configured pool size (request workers).",
		obs.Sample{Value: float64(s.pool.Size())})
	e.Gauge("phpserve_workers_busy",
		"Workers currently serving a request (instantaneous).",
		obs.Sample{Value: float64(s.pool.Size() - s.pool.Idle())})

	sched := s.sched.Stats()
	e.Gauge("phpserve_queue_depth",
		"Admitted requests waiting for a worker (instantaneous).",
		obs.Sample{Value: float64(s.sched.QueueDepth())})
	e.Gauge("phpserve_queue_limit",
		"Admission queue capacity beyond the worker count (-queue).",
		obs.Sample{Value: float64(s.sched.QueueLimit())})
	draining := 0.0
	if s.sched.State() != serve.StateRunning {
		draining = 1
	}
	e.Gauge("phpserve_draining",
		"1 once the server stopped admitting (draining or drained), else 0.",
		obs.Sample{Value: draining})
	e.Counter("phpserve_shed_total",
		"Requests rejected by the lifecycle layer, by reason.",
		obs.Sample{Labels: []obs.Label{{Name: "reason", Value: "overload"}}, Value: float64(sched.ShedOverload)},
		obs.Sample{Labels: []obs.Label{{Name: "reason", Value: "timeout"}}, Value: float64(sched.ShedDeadline)},
		obs.Sample{Labels: []obs.Label{{Name: "reason", Value: "canceled"}}, Value: float64(sched.ShedCanceled)},
		obs.Sample{Labels: []obs.Label{{Name: "reason", Value: "draining"}}, Value: float64(sched.ShedDraining)})
	e.Histogram("phpserve_queue_wait_seconds",
		"Time admitted requests spent waiting for a worker.", nil, sched.QueueWait)

	e.Histogram("phpserve_request_latency_seconds",
		"Request wall latency, queueing included.", nil, snap.Latency)
	e.Summary("phpserve_request_latency_summary_seconds",
		"Recent-request latency quantiles from the bounded reservoir.",
		nil,
		[]obs.Quantile{
			{Q: 0.5, Value: lat.P50.Seconds()},
			{Q: 0.95, Value: lat.P95.Seconds()},
			{Q: 0.99, Value: lat.P99.Seconds()},
		},
		lat.Mean.Seconds()*float64(lat.Count), uint64(lat.Count))

	catSamples := make([]obs.Sample, 0, sim.NumCategories)
	for _, c := range sim.Categories() {
		catSamples = append(catSamples, obs.Sample{
			Labels: []obs.Label{{Name: "category", Value: c.String()}},
			Value:  cats[c],
		})
	}
	e.Counter("phpserve_sim_cycles_total",
		"Simulated cycles by activity category, fleet-wide since warmup.",
		catSamples...)
	e.Counter("phpserve_sim_uops_total",
		"Simulated micro-ops executed on the general-purpose cores.",
		obs.Sample{Value: ps.Meter.TotalUops()})
	e.Counter("phpserve_sim_energy_picojoules_total",
		"Simulated energy in picojoules (core + accelerators).",
		obs.Sample{Value: ps.Meter.TotalEnergy()})

	accelCyc := make([]obs.Sample, 0, 4)
	accelCalls := make([]obs.Sample, 0, 4)
	for _, k := range sim.AccelKinds() {
		l := []obs.Label{{Name: "accel", Value: k.String()}}
		accelCyc = append(accelCyc, obs.Sample{Labels: l, Value: ps.Meter.AccelCycles(k)})
		accelCalls = append(accelCalls, obs.Sample{Labels: l, Value: float64(ps.Meter.AccelCalls(k))})
	}
	e.Counter("phpserve_accel_cycles_total",
		"Cycles spent inside each accelerator datapath.", accelCyc...)
	e.Counter("phpserve_accel_calls_total",
		"Invocations of each accelerator.", accelCalls...)

	ht := ps.Accel.HashTable
	e.Counter("phpserve_hashtable_gets_total",
		"Hardware hash table GET requests.", obs.Sample{Value: float64(ht.Gets)})
	e.Counter("phpserve_hashtable_get_hits_total",
		"Hardware hash table GETs served without software.", obs.Sample{Value: float64(ht.GetHits)})
	e.Counter("phpserve_hashtable_sets_total",
		"Hardware hash table SET requests.", obs.Sample{Value: float64(ht.Sets)})
	e.Counter("phpserve_hashtable_writebacks_total",
		"Key/value pairs written back to software maps.", obs.Sample{Value: float64(ht.Writebacks)})
	e.Gauge("phpserve_hashtable_hit_ratio",
		"Hardware hash table GET hit fraction (0 when no GETs).",
		obs.Sample{Value: obs.Finite(ht.HitRate())})
	e.Counter("phpserve_hashmap_rebuilds_total",
		"Stale hash-index rebuilds (coherence events) across all workers.",
		obs.Sample{Value: float64(ps.Accel.MapRebuilds)})

	e.Counter("phpserve_regex_cache_lookups_total",
		"Regexp manager pattern-cache probes.",
		obs.Sample{Value: float64(ps.Accel.RegexLookups)})
	e.Counter("phpserve_regex_cache_hits_total",
		"Regexp manager probes that found a compiled FSM.",
		obs.Sample{Value: float64(ps.Accel.RegexHits)})
	ratio := 0.0
	if ps.Accel.RegexLookups > 0 {
		ratio = obs.Finite(float64(ps.Accel.RegexHits) / float64(ps.Accel.RegexLookups))
	}
	e.Gauge("phpserve_regex_cache_hit_ratio",
		"Regexp manager cache hit fraction (0 when no lookups).",
		obs.Sample{Value: ratio})

	if s.cache != nil {
		cs := s.cache.Stats()
		e.Counter("phpserve_cache_hits_total",
			"Response cache lookups answered from a fresh cached entry.",
			obs.Sample{Value: float64(cs.Hits)})
		e.Counter("phpserve_cache_misses_total",
			"Response cache lookups that rendered on a worker and filled.",
			obs.Sample{Value: float64(cs.Misses)})
		e.Counter("phpserve_cache_coalesced_total",
			"Response cache lookups that waited on another request's in-flight render.",
			obs.Sample{Value: float64(cs.Coalesced)})
		e.Counter("phpserve_cache_evictions_total",
			"Response cache entries evicted by the LRU capacity bound.",
			obs.Sample{Value: float64(cs.Evictions)})
		e.Counter("phpserve_cache_expired_total",
			"Response cache entries dropped because their TTL passed.",
			obs.Sample{Value: float64(cs.Expired)})
		e.Gauge("phpserve_cache_entries",
			"Responses currently cached (instantaneous).",
			obs.Sample{Value: float64(cs.Entries)})
		e.Gauge("phpserve_cache_bytes",
			"Body bytes currently cached (instantaneous).",
			obs.Sample{Value: float64(cs.Bytes)})
		e.Gauge("phpserve_cache_hit_ratio",
			"Fraction of cache lookups answered from a cached entry (0 when no lookups).",
			obs.Sample{Value: obs.Finite(cs.HitRatio())})
	}

	if ps.Trace != nil {
		totals := ps.Trace.KindTotals()
		kinds := make([]obs.Sample, 0, trace.NumKinds)
		for k := 0; k < trace.NumKinds; k++ {
			kinds = append(kinds, obs.Sample{
				Labels: []obs.Label{{Name: "kind", Value: trace.Kind(k).String()}},
				Value:  float64(totals[k]),
			})
		}
		e.Counter("phpserve_trace_events_total",
			"Operation trace events recorded, by kind, since warmup.", kinds...)
	}

	// Go-heap allocation rates over the inter-scrape window: the
	// operational view of the arena-per-request serve path (near zero in
	// steady state; a jump means a new allocation crept onto it).
	allocsPR, allocBytesPR := s.goMemGauges(snap.Requests)
	e.Gauge("phpserve_go_allocs_per_request",
		"Go heap allocations per served request since the previous /metrics scrape.",
		obs.Sample{Labels: base, Value: obs.Finite(allocsPR)})
	e.Gauge("phpserve_go_alloc_bytes_per_request",
		"Go heap bytes allocated per served request since the previous /metrics scrape.",
		obs.Sample{Labels: base, Value: obs.Finite(allocBytesPR)})

	// The paper's Fig. 1 headline numbers as live gauges, computed over
	// the same windowed profile /profilez reports.
	lp, _ := s.observeLive(ps.Meter)
	e.Gauge("phpserve_profile_hottest_frac",
		"Hottest leaf function's share of windowed cycles (Fig. 1 headline).",
		obs.Sample{Labels: base, Value: obs.Finite(lp.HottestFrac())})
	e.Gauge("phpserve_profile_funcs_for_65",
		"Hottest functions needed to cover 65% of windowed cycles (Fig. 1 headline).",
		obs.Sample{Labels: base, Value: float64(lp.FuncsForFrac(0.65))})
	e.Gauge("phpserve_profile_functions",
		"Distinct leaf functions with cycles in the profile window.",
		obs.Sample{Labels: base, Value: float64(lp.NumFunctions())})
	if s.col.TreeRing() != nil {
		e.Counter("phpserve_trace_trees_total",
			"Sampled request span trees ever retained in the /tracez ring.",
			obs.Sample{Labels: base, Value: float64(s.col.TreeRing().Total())})
	}

	s.tierMetrics(e, base)
}

// goMemGauges reports Go heap allocation rates — allocations and bytes
// per served request — over the window since the previous /metrics
// scrape. The caller reads MemStats after the Pool.Snapshot barrier, so
// renders in flight at scrape time are in both the allocation and the
// request delta. The first scrape establishes the baseline (and reports
// 0); a scrape window with no served requests repeats the last value
// rather than dividing by zero.
func (s *server) goMemGauges(requests int64) (allocsPerReq, bytesPerReq float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.memMu.Lock()
	defer s.memMu.Unlock()
	if dr := requests - s.prevRequests; s.memInitialized && dr > 0 {
		s.allocsPerReq = float64(ms.Mallocs-s.prevMallocs) / float64(dr)
		s.allocBytesPerRq = float64(ms.TotalAlloc-s.prevTotalAlloc) / float64(dr)
	}
	s.prevMallocs, s.prevTotalAlloc, s.prevRequests = ms.Mallocs, ms.TotalAlloc, requests
	s.memInitialized = true
	return s.allocsPerReq, s.allocBytesPerRq
}

// observeLive rotates a fresh epoch into the live profile from an
// already-taken coherent pool snapshot's meter and returns the current
// window. Both /profilez and /metrics route through here, so either
// scrape advances the window.
func (s *server) observeLive(mt *sim.Meter) (profile.Profile, profile.WindowInfo) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	s.live.Observe(mt, time.Now())
	return s.live.Window()
}

// handleTracez exports the last sampled span trees from the bounded
// ring through the shared obs.ServeTracez handler. Parameters: n (last
// K trees, default 16, <=0 for all retained), rid (filter to one
// request's correlation ID — how the router fetches a backend tree for
// stitching), format=json (Chrome trace_event, default) | folded
// (flamegraph stacks) | text (indented tree) | tree (raw []*obs.Tree
// JSON interchange).
func (s *server) handleTracez(w http.ResponseWriter, r *http.Request) {
	ring := s.col.TreeRing()
	if ring == nil {
		http.Error(w, "tracez: span-tree retention disabled (-treering 0)", http.StatusNotFound)
		return
	}
	obs.ServeTracez(w, r, ring)
}

// profilezResponse is the /profilez?format=json shape.
type profilezResponse struct {
	App           string             `json:"app"`
	Config        string             `json:"config"`
	WindowSince   string             `json:"window_since"`
	WindowUntil   string             `json:"window_until"`
	WindowEpochs  int                `json:"window_epochs"`
	SinceBoot     bool               `json:"since_boot"`
	TotalCycles   float64            `json:"total_cycles"`
	Functions     int                `json:"functions"`
	HottestFrac   float64            `json:"hottest_frac"`
	FuncsFor65    int                `json:"funcs_for_65"`
	CDF           map[string]float64 `json:"cdf"`
	CategoryShare map[string]float64 `json:"category_share"`
	Top           []profilezEntry    `json:"top"`
}

type profilezEntry struct {
	Name     string  `json:"name"`
	Category string  `json:"category"`
	Cycles   float64 `json:"cycles"`
	Frac     float64 `json:"frac"`
	Cum      float64 `json:"cum"`
}

// cdfPoints are the function counts the table and JSON forms report the
// cumulative distribution at (the Fig. 1 x-axis landmarks).
var cdfPoints = []int{1, 10, 50, 100}

// handleProfilez serves the live windowed flat profile — the paper's
// Fig. 1/Fig. 4 analysis over current traffic. Parameters: n (top-N
// rows, default 30), format=table (default) | folded (flamegraph
// stacks) | json.
func (s *server) handleProfilez(w http.ResponseWriter, r *http.Request) {
	ps := s.pool.Snapshot()
	p, info := s.observeLive(ps.Meter)
	n := obs.QueryInt(r, "n", 30)

	switch format := r.URL.Query().Get("format"); format {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		window := "since boot"
		if !info.SinceBoot {
			window = fmt.Sprintf("last %s (%d epochs)", info.Until.Sub(info.Since).Round(time.Millisecond), info.Epochs)
		}
		fmt.Fprintf(w, "live flat profile: %s (%s), window %s\n", s.app, s.config, window)
		fmt.Fprintf(w, "functions: %d   total cycles: %.0f\n", p.NumFunctions(), p.Total)
		hottest := "-"
		if p.NumFunctions() > 0 {
			hottest = p.Entries[0].Name
		}
		fmt.Fprintf(w, "hottest: %s %.2f%%   functions for 65%%: %d\n",
			hottest, 100*obs.Finite(p.HottestFrac()), p.FuncsForFrac(0.65))
		cdf := p.CDF(cdfPoints)
		fmt.Fprint(w, "cdf:")
		for i, np := range cdfPoints {
			fmt.Fprintf(w, " top%d=%.1f%%", np, 100*cdf[i])
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, "categories:")
		shares := p.CategoryShares()
		for _, c := range sim.Categories() {
			if shares[c] > 0 {
				fmt.Fprintf(w, " %s=%.1f%%", c, 100*shares[c])
			}
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
		fmt.Fprint(w, p.Render(n))
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, p.Folded())
	case "json":
		resp := profilezResponse{
			App:           s.app,
			Config:        s.config,
			WindowSince:   info.Since.UTC().Format(time.RFC3339Nano),
			WindowUntil:   info.Until.UTC().Format(time.RFC3339Nano),
			WindowEpochs:  info.Epochs,
			SinceBoot:     info.SinceBoot,
			TotalCycles:   p.Total,
			Functions:     p.NumFunctions(),
			HottestFrac:   obs.Finite(p.HottestFrac()),
			FuncsFor65:    p.FuncsForFrac(0.65),
			CDF:           map[string]float64{},
			CategoryShare: map[string]float64{},
		}
		cdf := p.CDF(cdfPoints)
		for i, np := range cdfPoints {
			resp.CDF[strconv.Itoa(np)] = obs.Finite(cdf[i])
		}
		for c, share := range p.CategoryShares() {
			resp.CategoryShare[c.String()] = obs.Finite(share)
		}
		for _, e := range p.TopN(n) {
			resp.Top = append(resp.Top, profilezEntry{
				Name: e.Name, Category: e.Category.String(),
				Cycles: e.Cycles, Frac: e.Frac, Cum: e.Cum,
			})
		}
		obs.WriteJSON(w, http.StatusOK, resp)
	default:
		http.Error(w, fmt.Sprintf("profilez: unknown format %q (want table, folded, or json)", format), http.StatusBadRequest)
	}
}

// validateFlags fails fast on out-of-range flag values instead of
// silently clamping or panicking after warmup has already run.
func validateFlags(workers, warmup, queue int, sample float64, timeout, drain time.Duration) error {
	if workers <= 0 {
		return fmt.Errorf("phpserve: -workers must be positive, got %d", workers)
	}
	if warmup < 0 {
		return fmt.Errorf("phpserve: -warmup must be >= 0, got %d", warmup)
	}
	if queue < 0 {
		return fmt.Errorf("phpserve: -queue must be >= 0, got %d", queue)
	}
	if sample < 0 || sample > 1 {
		return fmt.Errorf("phpserve: -sample must be in [0,1], got %g", sample)
	}
	if timeout < 0 {
		return fmt.Errorf("phpserve: -timeout must be >= 0, got %v", timeout)
	}
	if drain < 0 {
		return fmt.Errorf("phpserve: -drain must be >= 0, got %v", drain)
	}
	return nil
}

// validateClusterFlags checks the -fpm flag family. The backend id may
// be -1 (standalone) or any non-negative id; -dbwait models time, so it
// cannot be negative.
func validateClusterFlags(backend int, dbwait time.Duration) error {
	if backend < -1 {
		return fmt.Errorf("phpserve: -backend must be >= 0 (or unset), got %d", backend)
	}
	if dbwait < 0 {
		return fmt.Errorf("phpserve: -dbwait must be >= 0, got %v", dbwait)
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	app := flag.String("app", "wordpress", "workload to serve (wordpress, drupal, mediawiki)")
	config := flag.String("config", "accelerated", "core config: baseline, mitigated, accelerated")
	workers := flag.Int("workers", 4, "request workers (independent runtimes)")
	seed := flag.Int64("seed", 1, "workload seed (worker i uses seed+i)")
	warmup := flag.Int("warmup", 300, "warmup requests per worker before listening")
	ctxSwitch := flag.Int("ctxswitch", 64, "context switch every n requests per worker (0 disables)")
	queue := flag.Int("queue", 64, "admission queue depth beyond the worker count (0 sheds whenever all workers are busy)")
	timeout := flag.Duration("timeout", 0, "per-request deadline from admission (0 disables; expired requests get 504)")
	drainTO := flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period for in-flight requests on SIGTERM/SIGINT")
	arenaCap := flag.Int("arenacap", 0, "per-worker request-arena bytes retained across requests (0 retains everything; lower trades allocation churn for idle footprint)")
	cacheCap := flag.Int("cache", 0, "response cache capacity in entries (0 disables the cache)")
	cacheTTL := flag.Duration("cachettl", 0, "response cache entry time-to-live (0 never expires)")
	cacheShards := flag.Int("cacheshards", cache.DefaultShards, "response cache shard count (rounded up to a power of two)")
	pages := flag.Int("pages", 512, "distinct page identities requests draw from when the cache is on")
	zipf := flag.Float64("zipf", 1.0, "Zipf popularity exponent for server-drawn page identities (cache mode)")
	sample := flag.Float64("sample", 0.01, "per-request span sampling rate in [0,1]")
	accessLog := flag.String("accesslog", "", "JSON-lines access log for sampled spans and sheds (path, - for stdout, empty disables)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceBuf := flag.Int("tracebuf", 4096, "per-worker operation trace ring size (0 unbounded — leaks on a long-running server; -1 disables tracing)")
	treeRing := flag.Int("treering", 64, "sampled span trees retained for /tracez (0 disables)")
	profEpochs := flag.Int("profepochs", profile.DefaultLiveEpochs, "cumulative profile epochs retained; the /profilez window spans up to profepochs-1 scrapes")
	fpm := flag.Bool("fpm", false, "run as a cluster backend process (FPM-style, behind phprouter): implies -backend 0 unless set")
	backend := flag.Int("backend", -1, "cluster backend id stamped on X-Backend, /healthz, and access-log lines (-1 standalone)")
	listen := flag.String("listen", "", "backend listen address; overrides -addr (the flag phprouter's spawner sets per backend)")
	dbwait := flag.Duration("dbwait", 0, "simulated per-render database stall, held on the worker FPM-style (0 disables)")
	tier := flag.String("tier", "", "script execution tier for scripted workloads: interp, auto (profile-guided promotion), or bytecode (empty leaves the tier plane off)")
	flag.Parse()

	if err := validateFlags(*workers, *warmup, *queue, *sample, *timeout, *drainTO); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err := validateClusterFlags(*backend, *dbwait); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *fpm && *backend < 0 {
		*backend = 0
	}
	if *listen != "" {
		*addr = *listen
	}
	if err := cache.ValidateFlags(*cacheCap, *cacheShards, *pages, *cacheTTL, *zipf); err != nil {
		fmt.Fprintln(os.Stderr, "phpserve:", err)
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := vm.ConfigByName(*config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phpserve: -config:", err)
		flag.Usage()
		os.Exit(2)
	}
	cfg.TraceCapacity = *traceBuf
	if *arenaCap < 0 {
		fmt.Fprintf(os.Stderr, "phpserve: -arenacap must be >= 0, got %d\n", *arenaCap)
		flag.Usage()
		os.Exit(2)
	}
	cfg.ArenaRetain = *arenaCap
	// Cache mode needs page identity to be worker-independent, so every
	// worker renders from the same seed; without the cache, workers keep
	// their historical per-worker seeds (seed+i) for varied traffic.
	newPool := workload.NewPool
	if *cacheCap > 0 {
		newPool = workload.NewPoolSharedSeed
	}
	pool, err := newPool(*workers, cfg, *app, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logW, logC, err := obs.OpenAccessLog(*accessLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Configure the tier before warmup, so auto mode's promotion
	// windows start accumulating on the warmup traffic and the server
	// opens for business already tiered-up.
	if *tier != "" {
		mode, err := php.ParseTierMode(*tier)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phpserve:", err)
			flag.Usage()
			os.Exit(2)
		}
		supported, err := pool.ConfigureScriptTier(mode, php.DefaultTierPolicy())
		if err != nil {
			fmt.Fprintln(os.Stderr, "phpserve:", err)
			os.Exit(2)
		}
		if !supported {
			fmt.Fprintf(os.Stderr, "phpserve: -tier requires a scripted workload; %s is a Go-coded recipe\n", *app)
			os.Exit(2)
		}
		fmt.Printf("phpserve: script tier %s\n", mode)
	}

	fmt.Printf("phpserve: warming %d %s worker(s) (%d requests each, %s core)\n",
		*workers, *app, *warmup, *config)
	// Every worker serves the warmup so the server answers steady-state
	// traffic from the start; the warmup's costs are discarded.
	pool.Run(workload.LoadGenerator{Warmup: *warmup, ContextSwitchEvery: *ctxSwitch}, 0)

	col := obs.NewCollector(*sample, logW, nil)
	if *treeRing > 0 {
		col.SetTreeRing(obs.NewTreeRing(*treeRing))
	}
	sched := serve.NewScheduler(pool, serve.Config{QueueDepth: *queue, Timeout: *timeout, CtxSwitchEvery: *ctxSwitch})
	srv := newServer(sched, col, *app, *config)
	srv.live = profile.NewLive(*profEpochs, time.Now())
	srv.pprofEnabled = *pprofFlag
	srv.tier = *tier
	srv.backendID = *backend
	srv.dbWait = *dbwait
	col.SetBackend(srv.backendLabel())
	if *cacheCap > 0 {
		if !pool.SupportsPages() {
			fmt.Fprintf(os.Stderr, "phpserve: -cache requires a workload with page identity; %s has none\n", *app)
			os.Exit(2)
		}
		srv.cache = cache.New(cache.Config{Capacity: *cacheCap, Shards: *cacheShards, TTL: *cacheTTL})
		srv.pageKeys, err = workload.NewZipfKeys(*seed, *zipf, *pages)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("phpserve: response cache on: %d entries, %d shards, ttl %v, %d pages, zipf %g\n",
			srv.cache.Capacity(), srv.cache.Shards(), *cacheTTL, *pages, *zipf)
	}
	fmt.Printf("phpserve: listening on %s (queue %d, timeout %v, sample rate %g", *addr, *queue, *timeout, *sample)
	if *backend >= 0 {
		fmt.Printf(", backend %d", *backend)
	}
	if *dbwait > 0 {
		fmt.Printf(", dbwait %v", *dbwait)
	}
	if *pprofFlag {
		fmt.Print(", pprof on")
	}
	fmt.Println(")")

	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-sigCtx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: stop admitting (new requests shed 503), let
	// in-flight requests finish within the grace period, stop the
	// listener, then flush what the run accumulated.
	fmt.Printf("phpserve: draining (grace %v)\n", *drainTO)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	drainErr := sched.Drain(dctx)
	httpSrv.Shutdown(dctx)
	snap := col.Snapshot()
	st := sched.Stats()
	fmt.Printf("phpserve: drained: served %d requests (%d sampled), shed %d (overload %d, timeout %d, canceled %d, draining %d)\n",
		snap.Requests, snap.SampledSpans, st.Shed(), st.ShedOverload, st.ShedDeadline, st.ShedCanceled, st.ShedDraining)
	if srv.cache != nil {
		cs := srv.cache.Stats()
		fmt.Printf("phpserve: cache: %d hits, %d misses, %d coalesced, %d evictions, hit ratio %.3f\n",
			cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions, cs.HitRatio())
	}
	if logC != nil {
		logC.Close()
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "phpserve: drain incomplete after %v: %v\n", *drainTO, drainErr)
		os.Exit(1)
	}
}
