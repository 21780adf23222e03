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
//	         [-sample 0.01] [-accesslog path|-] [-pprof]
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

// stats is the server's one snapshot and the one declaration of every
// number on it: /stats is its JSON, /metrics is obs.Encoder.Struct of it
// (prefix phpserve_, base labels app and config), and the signals table
// in docs/OPERATIONS.md is rendered from the tags. Embedded library
// snapshots carry their own tags; nil pointers and nil vectors are the
// "absent without -cache / -treering 0 / -tier" rule.
// Latencies are reported in microseconds on /stats; simulated totals
// cover the whole fleet since warmup.
type stats struct {
	App         string `json:"app" help:"The -app the server was started with."`
	Config      string `json:"config" help:"The -config the server was started with."`
	Workers     int    `json:"workers" prom:"workers,gauge" help:"Configured pool size (request workers)."`
	WorkersBusy int    `json:"-" prom:"workers_busy,gauge" help:"Workers currently serving a request (instantaneous)."`
	obs.Snapshot
	UptimeSec      float64 `json:"uptime_sec" prom:"uptime_seconds,gauge" help:"Seconds since the server started."`
	RequestsPerSec float64 `json:"requests_per_sec" help:"requests / uptime_sec."`

	State      string `json:"state" help:"Lifecycle state: ready, draining or drained."`
	Draining   bool   `json:"-" prom:"draining,gauge" help:"1 once the server stopped admitting (draining or drained), else 0."`
	QueueDepth int    `json:"queue_depth" prom:"queue_depth,gauge" help:"Admitted requests waiting for a worker (instantaneous)."`
	QueueLimit int    `json:"queue_limit" prom:"queue_limit,gauge" help:"Admission queue capacity beyond the worker count (-queue)."`
	serve.Stats

	// lat summarizes the bounded reservoir: the latency_*_us keys here,
	// the quantiles of the hand-written summary on /metrics.
	lat           workload.LatencyStats
	LatencyP50Us  int64 `json:"latency_p50_us" help:"Nearest-rank p50 wall latency over the bounded reservoir of recent requests, microseconds."`
	LatencyP95Us  int64 `json:"latency_p95_us" help:"Same reservoir, p95."`
	LatencyP99Us  int64 `json:"latency_p99_us" help:"Same reservoir, p99."`
	LatencyMaxUs  int64 `json:"latency_max_us" help:"Same reservoir, maximum."`
	LatencyMeanUs int64 `json:"latency_mean_us" help:"Same reservoir, mean."`

	SimCycles         float64 `json:"sim_cycles" help:"Total simulated cycles, all workers merged (cache lookup charges included)."`
	SimUops           float64 `json:"sim_uops" prom:"sim_uops_total,counter" help:"Simulated micro-ops executed on the general-purpose cores."`
	SimEnergyPJ       float64 `json:"sim_energy_pj" prom:"sim_energy_picojoules_total,counter" help:"Simulated energy in picojoules (core + accelerators)."`
	CyclesPerRequest  float64 `json:"cycles_per_request" help:"sim_cycles / requests; the per-row figure loadgen prints."`
	SimCategoryCycles obs.Vec `json:"sim_category_cycles" prom:"sim_cycles_total,counter,by=category" help:"Simulated cycles by activity category, fleet-wide since warmup."`
	SimCategoryShare  obs.Vec `json:"sim_category_share" help:"sim_category_cycles, each divided by sim_cycles; sums to 1 once requests have been served."`
	AccelCycles       obs.Vec `json:"-" prom:"accel_cycles_total,counter,by=accel" help:"Cycles spent inside each accelerator datapath."`
	AccelCalls        obs.Vec `json:"-" prom:"accel_calls_total,counter,by=accel" help:"Invocations of each accelerator."`

	workload.AccelStats
	HashTableHitRatio  float64 `json:"hashtable_hit_ratio" prom:"hashtable_hit_ratio,gauge" help:"Hardware hash table GET hit fraction (0 when no GETs)."`
	RegexCacheHitRatio float64 `json:"regex_cache_hit_ratio" prom:"regex_cache_hit_ratio,gauge" help:"Regexp manager cache hit fraction (0 when no lookups)."`

	Cache       *cache.Stats `json:"cache,omitempty"`
	TraceEvents obs.Vec      `json:"-" prom:"trace_events_total,counter,by=kind" help:"Operation trace events recorded, by kind, since warmup."`
	TraceTrees  *int64       `json:"-" prom:"trace_trees_total,counter,base" help:"Sampled request span trees ever retained in the /tracez ring."`

	// Window and Tier are filled by /metrics only: a /stats scrape must
	// neither rotate the scrape-to-scrape windows nor take the tier
	// plane's second pool barrier.
	Window *scrapeWindow     `json:"-"`
	Tier   *php.TierSnapshot `json:"-"`
}

// scrapeWindow is what a /metrics scrape measures since the previous
// one: Go-heap allocation rates — the operational view of the
// arena-per-request serve path, near zero in steady state — and the
// paper's Fig. 1 headline numbers over the /profilez window.
type scrapeWindow struct {
	AllocsPerReq     float64 `prom:"go_allocs_per_request,gauge,base" help:"Go heap allocations per served request since the previous /metrics scrape."`
	AllocBytesPerReq float64 `prom:"go_alloc_bytes_per_request,gauge,base" help:"Go heap bytes allocated per served request since the previous /metrics scrape."`
	HottestFrac      float64 `prom:"profile_hottest_frac,gauge,base" help:"Hottest leaf function's share of windowed cycles (Fig. 1 headline)."`
	FuncsFor65       int     `prom:"profile_funcs_for_65,gauge,base" help:"Hottest functions needed to cover 65% of windowed cycles (Fig. 1 headline)."`
	Functions        int     `prom:"profile_functions,gauge,base" help:"Distinct leaf functions with cycles in the profile window."`
}

// vec builds the ordered vector of val over keys, named by String.
func vec[K fmt.Stringer](keys []K, val func(K) float64) obs.Vec {
	v := make(obs.Vec, len(keys))
	for i, k := range keys {
		v[i] = obs.VecEntry{Name: k.String(), Value: val(k)}
	}
	return v
}

// snapshot computes the one coherent view both /stats and /metrics
// render, and returns the merged meter it read for the live profile.
// Pool.Snapshot drains the free list, so it is also the barrier:
// in-flight renders finish before their costs are aggregated. The
// cache's fixed lookup charges merge into the same meter so the
// category totals cover hits too. Every ratio goes through obs.Finite,
// so a cold scrape reports 0, never NaN. /healthz never comes here — it is
// probed every 500 ms and must not quiesce the pool.
func (s *server) snapshot() (*stats, *sim.Meter) {
	ps := s.pool.Snapshot()
	state := s.sched.State()
	st := &stats{
		App:         s.app,
		Config:      s.config,
		Workers:     s.pool.Size(),
		WorkersBusy: s.pool.Size() - s.pool.Idle(),
		Snapshot:    s.col.Snapshot(),
		UptimeSec:   time.Since(s.start).Seconds(),
		State:       state.String(),
		Draining:    state != serve.StateRunning,
		QueueDepth:  s.sched.QueueDepth(),
		QueueLimit:  s.sched.QueueLimit(),
		Stats:       s.sched.Stats(),
		AccelStats:  ps.Accel,
	}
	if s.cache != nil {
		s.cache.MergeMeter(ps.Meter)
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	st.lat = workload.LatencyStatsFrom(st.Latencies)
	st.LatencyP50Us = st.lat.P50.Microseconds()
	st.LatencyP95Us = st.lat.P95.Microseconds()
	st.LatencyP99Us = st.lat.P99.Microseconds()
	st.LatencyMaxUs = st.lat.Max.Microseconds()
	st.LatencyMeanUs = st.lat.Mean.Microseconds()
	st.RequestsPerSec = obs.Finite(float64(st.Requests) / st.UptimeSec)

	cats := ps.Meter.CategoryCyclesVec()
	st.SimCycles = cats.Total()
	st.SimUops = ps.Meter.TotalUops()
	st.SimEnergyPJ = ps.Meter.TotalEnergy()
	st.CyclesPerRequest = obs.Finite(st.SimCycles / float64(st.Requests))
	st.SimCategoryCycles = vec(sim.Categories(), func(c sim.Category) float64 { return cats[c] })
	st.SimCategoryShare = vec(sim.Categories(), func(c sim.Category) float64 { return obs.Finite(cats[c] / st.SimCycles) })
	st.AccelCycles = vec(sim.AccelKinds(), ps.Meter.AccelCycles)
	st.AccelCalls = vec(sim.AccelKinds(), func(k sim.AccelKind) float64 { return float64(ps.Meter.AccelCalls(k)) })
	st.HashTableHitRatio = ps.Accel.HashTable.HitRate()
	st.RegexCacheHitRatio = obs.Finite(float64(ps.Accel.RegexHits) / float64(ps.Accel.RegexLookups))

	totals := ps.Trace.KindTotals()
	st.TraceEvents = make(obs.Vec, trace.NumKinds)
	for k := range st.TraceEvents {
		st.TraceEvents[k] = obs.VecEntry{Name: trace.Kind(k).String(), Value: float64(totals[k])}
	}
	if ring := s.col.TreeRing(); ring != nil {
		total := ring.Total()
		st.TraceTrees = &total
	}
	return st, ps.Meter
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st, _ := s.snapshot()
	obs.WriteJSON(w, http.StatusOK, st)
}

// handleMetrics renders the Prometheus text-format exposition: the
// snapshot with its scrape window rotated and the tier plane read, plus
// the one family no field can carry — the reservoir's quantiles, as a
// summary whose _sum and _count are the latency histogram's (exact
// since start; the reservoir halves itself, and a summary's are
// counters).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st, mt := s.snapshot()
	st.Window = s.scrapeWindow(mt, st.Requests)
	if s.tier != "" {
		ts := s.pool.TierSnapshot()
		st.Tier = &ts
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := obs.NewEncoder(w)
	e.Struct("phpserve_", []obs.Label{{Name: "app", Value: s.app}, {Name: "config", Value: s.config}}, st)
	e.Summary("phpserve_request_latency_summary_seconds",
		"Recent-request latency quantiles from the bounded reservoir.",
		nil,
		[]obs.Quantile{
			{Q: 0.5, Value: st.lat.P50.Seconds()},
			{Q: 0.95, Value: st.lat.P95.Seconds()},
			{Q: 0.99, Value: st.lat.P99.Seconds()},
		},
		st.Latency.Sum, st.Latency.Count)
	if err := e.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "phpserve: metrics write: %v\n", err)
	}
}

// scrapeWindow rotates both scrape-to-scrape windows — the MemStats
// baseline and the live profile — and reports them. The caller has
// taken the Pool.Snapshot barrier, so renders in flight at scrape time
// are in both the allocation and the request delta. The first scrape
// establishes the allocation baseline (and reports 0); a window with no
// served requests repeats the last value rather than dividing by zero.
func (s *server) scrapeWindow(mt *sim.Meter, requests int64) *scrapeWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.memMu.Lock()
	if dr := requests - s.prevRequests; s.memInitialized && dr > 0 {
		s.allocsPerReq = float64(ms.Mallocs-s.prevMallocs) / float64(dr)
		s.allocBytesPerRq = float64(ms.TotalAlloc-s.prevTotalAlloc) / float64(dr)
	}
	s.prevMallocs, s.prevTotalAlloc, s.prevRequests = ms.Mallocs, ms.TotalAlloc, requests
	s.memInitialized = true
	w := &scrapeWindow{AllocsPerReq: s.allocsPerReq, AllocBytesPerReq: s.allocBytesPerRq}
	s.memMu.Unlock()

	lp, _ := s.observeLive(mt)
	w.HottestFrac, w.FuncsFor65, w.Functions = lp.HottestFrac(), lp.FuncsForFrac(0.65), lp.NumFunctions()
	return w
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
		obs.WriteJSON(w, http.StatusOK, profile.NewDoc(s.app, s.config, p, info, cdfPoints, n))
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
	cfg.TraceCapacity = -1 // count trace events by kind, keep none: nothing here reads one
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
		cs := srv.cache.Stats()
		fmt.Printf("phpserve: response cache on: %d entries, %d shards, ttl %v, %d pages, zipf %g\n",
			cs.Capacity, cs.Shards, *cacheTTL, *pages, *zipf)
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
			cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions, cs.HitRatio)
	}
	if logC != nil {
		logC.Close()
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "phpserve: drain incomplete after %v: %v\n", *drainTO, drainErr)
		os.Exit(1)
	}
}
