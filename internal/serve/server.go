package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/php"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// ServerConfig is one phpserve process, everything its flags set but
// where it listens. cmd/phpserve fills it from flags; the in-process
// cluster, the benchmark records and the tests fill it directly, so they
// all run the server the binary runs.
type ServerConfig struct {
	// App names the workload and Core the core configuration (-config:
	// baseline, mitigated or accelerated).
	App, Core string
	// Workers is the pool size, each worker its own runtime. Worker i
	// renders from Seed+i, or every worker from Seed with a cache (page
	// identity must not depend on the worker that renders it).
	Workers int
	Seed    int64
	// Warmup requests per worker run before NewServer returns, their
	// costs discarded. Every CtxSwitchEvery-th request of a worker, warm-up
	// included, ends with a context switch (0 never).
	Warmup, CtxSwitchEvery int
	// QueueDepth and Timeout are the scheduler's admission queue beyond
	// the workers and its per-request deadline (0: none).
	QueueDepth int
	Timeout    time.Duration
	// Drain bounds ListenAndServe's graceful shutdown: in-flight requests
	// get this long to finish once SIGTERM or SIGINT arrives.
	Drain time.Duration
	// ArenaCap is the request-arena bytes a worker keeps between
	// requests (0 keeps everything).
	ArenaCap int
	// CacheCapacity > 0 puts a response cache of that many entries in
	// CacheShards shards, each entry living CacheTTL (0: forever), in
	// front of the pool; a request without ?page= then draws its page
	// from Zipf(ZipfS) over Pages pages, seeded with Seed.
	CacheCapacity, CacheShards int
	CacheTTL                   time.Duration
	Pages                      int
	ZipfS                      float64
	// Tier is the script execution engine of a scripted workload (interp
	// or bytecode; auto is accepted as bytecode); "" leaves the tier
	// plane off.
	Tier string
	// SampleRate is the fraction of requests profiled, TreeRing how many
	// sampled span trees /tracez keeps (0: none), AccessLog the JSON-lines
	// log's destination (nil: none). Pprof, when non-nil, answers
	// /debug/pprof/ (phpserve -pprof passes net/http/pprof's handlers).
	SampleRate float64
	TreeRing   int
	AccessLog  io.Writer
	Pprof      http.Handler
	// Backend >= 0 makes the server that cluster backend: the id is
	// stamped on X-Backend, /healthz and every access-log line. -1 runs
	// standalone (the zero value is backend 0).
	Backend int
	// DBWait is the simulated database stall of each render, held on its
	// worker the way an FPM worker blocks (0: none).
	DBWait time.Duration
}

// validate fails fast on values a flag could carry but the server cannot
// run with, before any worker is built.
func (c ServerConfig) validate() error {
	for _, chk := range []struct {
		bad bool
		msg string
	}{
		{c.Workers <= 0, fmt.Sprintf("-workers must be positive, got %d", c.Workers)},
		{c.Warmup < 0, fmt.Sprintf("-warmup must be >= 0, got %d", c.Warmup)},
		{c.QueueDepth < 0, fmt.Sprintf("-queue must be >= 0, got %d", c.QueueDepth)},
		{c.SampleRate < 0 || c.SampleRate > 1, fmt.Sprintf("-sample must be in [0,1], got %g", c.SampleRate)},
		{c.Timeout < 0, fmt.Sprintf("-timeout must be >= 0, got %v", c.Timeout)},
		{c.Drain < 0, fmt.Sprintf("-drain must be >= 0, got %v", c.Drain)},
		{c.ArenaCap < 0, fmt.Sprintf("-arenacap must be >= 0, got %d", c.ArenaCap)},
		{c.TreeRing < 0, fmt.Sprintf("-treering must be >= 0, got %d", c.TreeRing)},
		{c.Backend < -1, fmt.Sprintf("-backend must be >= 0 (or unset), got %d", c.Backend)},
		{c.DBWait < 0, fmt.Sprintf("-dbwait must be >= 0, got %v", c.DBWait)},
	} {
		if chk.bad {
			return fmt.Errorf("phpserve: %s", chk.msg)
		}
	}
	if err := cache.ValidateFlags(c.CacheCapacity, c.CacheShards, c.Pages, c.CacheTTL, c.ZipfS); err != nil {
		return fmt.Errorf("phpserve: %w", err)
	}
	return nil
}

// Server is a phpserve process without its socket, the way the paper's
// evaluation serves a PHP application from a pool of HHVM request
// workers behind a web front end (§5.1). Every request goes through the
// Scheduler's lifecycle (bounded admission queue, per-request deadline,
// typed 503/504 sheds, graceful drain) and, with a cache, through the
// response cache, whose hits take no worker. Handler serves the
// render path and the operator surface: /stats, /metrics, /tracez,
// /profilez, /tierz, /healthz and, with Pprof, /debug/pprof/.
type Server struct {
	// Sched, Pool and Col are the lifecycle, the workers and the
	// collector every surface reads; Cache is nil without a cache.
	Sched *Scheduler
	Pool  *workload.Pool
	Col   *obs.Collector
	Cache *cache.Cache

	cfg   ServerConfig
	start time.Time
	// ids mints request IDs for requests that arrive without one; behind
	// phprouter the router's ID wins, so one ID spans both processes.
	ids *obs.IDSource
	// pageKeys assigns a page to a cached request that names none.
	pageKeys *workload.ZipfKeys

	// memMu guards the MemStats baseline of the per-request allocation
	// gauges: each /metrics scrape reports the rate over the requests
	// served since the previous one, read after the Pool.Snapshot
	// barrier so in-flight renders are in both deltas.
	memMu           sync.Mutex
	prevMallocs     uint64
	prevTotalAlloc  uint64
	prevRequests    int64
	memInitialized  bool
	allocsPerReq    float64
	allocBytesPerRq float64

	// live is the windowed flat profile behind /profilez and the
	// profile gauges; liveMu serializes its rotations.
	liveMu sync.Mutex
	live   *profile.Live
}

// NewServer builds the pool, configures its script tier, runs the
// warm-up and assembles the scheduler, cache and collector in front of
// it. It leaves GOMAXPROCS alone (ListenAndServe sets the budget).
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	vmc, err := vm.ConfigByName(cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("phpserve: -config: %w", err)
	}
	vmc.TraceCapacity = -1 // count trace events by kind, keep none: nothing here reads one
	vmc.ArenaRetain = cfg.ArenaCap
	newPool := workload.NewPool
	if cfg.CacheCapacity > 0 {
		newPool = workload.NewPoolSharedSeed
	}
	pool, err := newPool(cfg.Workers, vmc, cfg.App, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var pageKeys *workload.ZipfKeys
	if cfg.CacheCapacity > 0 {
		if !pool.SupportsPages() {
			return nil, fmt.Errorf("phpserve: -cache requires a workload with page identity; %s has none", cfg.App)
		}
		if pageKeys, err = workload.NewZipfKeys(cfg.Seed, cfg.ZipfS, cfg.Pages); err != nil {
			return nil, err
		}
	}
	// The engine is set before warm-up, so the server opens with its
	// inline caches filled.
	if cfg.Tier != "" {
		mode, err := php.ParseTierMode(cfg.Tier)
		if err != nil {
			return nil, fmt.Errorf("phpserve: %w", err)
		}
		supported, err := pool.ConfigureScriptTier(mode, php.DefaultTierPolicy())
		if err != nil {
			return nil, fmt.Errorf("phpserve: %w", err)
		}
		if !supported {
			return nil, fmt.Errorf("phpserve: -tier requires a scripted workload; %s is a Go-coded recipe", cfg.App)
		}
	}
	pool.Run(workload.LoadGenerator{Warmup: cfg.Warmup, ContextSwitchEvery: cfg.CtxSwitchEvery}, 0)
	// What serves requests is allocated after the warm-up, apart from the
	// workers' own state. Every request writes the scheduler's and the
	// collector's counters; allocated before the warm-up, they cost
	// wp_soft about 5 % more CPU per request on a 2-vCPU host.
	s := &Server{
		Sched:    NewScheduler(pool, Config{QueueDepth: cfg.QueueDepth, Timeout: cfg.Timeout, CtxSwitchEvery: cfg.CtxSwitchEvery}),
		Pool:     pool,
		Col:      obs.NewCollector(cfg.SampleRate, cfg.AccessLog, nil),
		cfg:      cfg,
		ids:      obs.NewIDSource(),
		pageKeys: pageKeys,
	}
	if cfg.CacheCapacity > 0 {
		s.Cache = cache.New(cache.Config{Capacity: cfg.CacheCapacity, Shards: cfg.CacheShards, TTL: cfg.CacheTTL})
	}
	if cfg.TreeRing > 0 {
		s.Col.SetTreeRing(obs.NewTreeRing(cfg.TreeRing))
	}
	s.Col.SetBackend(s.backendLabel())
	s.start = time.Now()
	s.live = profile.NewLive(0, s.start)
	return s, nil
}

// ListenAndServe is the phpserve process: it runs on the Go Ps its
// workers can use, serves Handler on addr until SIGTERM or SIGINT, then
// drains — new requests shed 503 while in-flight ones finish within
// Drain — and reports what the run served. It returns the listener's
// error, or the drain's when in-flight requests outlived Drain.
func (s *Server) ListenAndServe(addr string) error {
	procs := SetProcs(s.cfg.Workers) // after warm-up, which keeps every CPU for the GC's parallel mark
	if s.cfg.Tier != "" {
		fmt.Printf("phpserve: script tier %s\n", s.cfg.Tier)
	}
	if s.Cache != nil {
		cs := s.Cache.Stats()
		fmt.Printf("phpserve: response cache on: %d entries, %d shards, ttl %v, %d pages, zipf %g\n",
			cs.Capacity, cs.Shards, s.cfg.CacheTTL, s.cfg.Pages, s.cfg.ZipfS)
	}
	fmt.Printf("phpserve: listening on %s (queue %d, timeout %v, sample rate %g, procs %d", addr, s.cfg.QueueDepth, s.cfg.Timeout, s.cfg.SampleRate, procs)
	if s.cfg.Backend >= 0 {
		fmt.Printf(", backend %d", s.cfg.Backend)
	}
	if s.cfg.DBWait > 0 {
		fmt.Printf(", dbwait %v", s.cfg.DBWait)
	}
	if s.cfg.Pprof != nil {
		fmt.Print(", pprof on")
	}
	fmt.Println(")")

	sig, stop := signalContext()
	defer stop()
	var drainErr error
	err := serveUntilSignal(sig, "phpserve", addr, s.Handler(), s.cfg.Drain, func(ctx context.Context, hs *HTTPServer) {
		drainErr = s.Sched.Drain(ctx)
		hs.Shutdown(ctx)
	})
	if err != nil {
		return err
	}
	snap, st := s.Col.Snapshot(), s.Sched.Stats()
	fmt.Printf("phpserve: drained: served %d requests (%d sampled), shed %d (overload %d, timeout %d, canceled %d, draining %d)\n",
		snap.Requests, snap.SampledSpans, st.Shed(), st.ShedOverload, st.ShedDeadline, st.ShedCanceled, st.ShedDraining)
	if s.Cache != nil {
		cs := s.Cache.Stats()
		fmt.Printf("phpserve: cache: %d hits, %d misses, %d coalesced, %d evictions, hit ratio %.3f\n",
			cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions, cs.HitRatio)
	}
	if drainErr != nil {
		return fmt.Errorf("phpserve: drain incomplete after %v: %w", s.cfg.Drain, drainErr)
	}
	return nil
}

// backendLabel is the access-log and /healthz form of the backend
// identity: the id in cluster mode, "-" standalone.
func (s *Server) backendLabel() string {
	if s.cfg.Backend < 0 {
		return "-"
	}
	return strconv.Itoa(s.cfg.Backend)
}

// Handler routes the render path and the operator surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleRender)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/profilez", s.handleProfilez)
	mux.HandleFunc("/tierz", s.handleTierz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.cfg.Pprof != nil {
		mux.Handle("/debug/pprof/", s.cfg.Pprof)
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
// into a Request — page identity from ?page=N (400 when malformed),
// else a Zipf draw with a cache, else the worker's next request — and
// lets Scheduler.Serve do the rest. The request ID (inbound, or minted)
// is echoed; a sampled request's tree is announced with X-Trace-Sampled
// before the body, so the router's stitch fetch always finds it; the
// cache outcome is the X-Cache header.
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	rid := obs.SanitizeRequestID(r.Header.Get(obs.HeaderRequestID))
	if rid == "" {
		rid = s.ids.Next()
	}
	w.Header().Set(obs.HeaderRequestID, rid)
	page, err := ParsePage(r.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if page < 0 && s.pageKeys != nil {
		page = s.pageKeys.Next()
	}
	bufp := respBufs.Get().(*[]byte)
	defer respBufs.Put(bufp)
	resp, err := s.Sched.Serve(r.Context(), Request{
		Page:    page,
		Profile: s.Col.ShouldSample(),
		Cache:   s.Cache,
		Stall:   s.cfg.DBWait,
	}, bufp)
	meta := obs.RequestMeta{
		Path:      r.URL.RequestURI(),
		UserAgent: r.UserAgent(),
		RequestID: rid,
		QueueWait: resp.Wait,
	}
	if err != nil {
		a := shedAnswers[OutcomeOf(err)]
		if a.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		meta.Outcome, meta.Status = a.label, a.status
		s.Col.ObserveShed(meta)
		http.Error(w, err.Error(), a.status)
		return
	}
	if tree := resp.Span.Tree; tree != nil {
		tree.SetID(rid)
		w.Header().Set(obs.HeaderTraceSampled, "1")
	}
	meta.Status = http.StatusOK
	s.Col.ObserveHTTP(resp.Span, len(resp.Body), meta)

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if s.Cache != nil {
		w.Header().Set("X-Cache", strings.ToUpper(resp.Cache.String()))
	}
	if s.cfg.Backend >= 0 {
		w.Header().Set("X-Backend", strconv.Itoa(s.cfg.Backend))
	}
	w.Write(resp.Body)
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the server produced a response. The status is
// never seen by that client (it is gone) — it exists for the access log
// and metrics, so abandoned requests stop masquerading as 504 timeouts.
const statusClientClosedRequest = 499

// shedAnswers is each failed outcome's access-log label and HTTP status:
// 503 for overload and drain (retryable, sent with Retry-After: 1, long
// enough for a queue-full burst to clear), 504 for an expired deadline,
// 499 for a client that disconnected first, 500 for a render that
// failed.
var shedAnswers = map[Outcome]struct {
	label  string
	status int
}{
	OutcomeOverload: {"shed_overload", http.StatusServiceUnavailable},
	OutcomeDraining: {"draining", http.StatusServiceUnavailable},
	OutcomeDeadline: {"timeout", http.StatusGatewayTimeout},
	OutcomeCanceled: {"canceled", statusClientClosedRequest},
	OutcomeError:    {"error", http.StatusInternalServerError},
}

// handleHealthz reports readiness: 200 with status "ready" while
// admitting, 503 once draining starts so load balancers stop routing
// here while in-flight requests finish. It never takes the pool
// barrier: it is probed every 500 ms.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state := s.Sched.State()
	resp := struct {
		Status      string `json:"status"` // ready | draining | drained
		Ready       bool   `json:"ready"`
		Backend     string `json:"backend"` // cluster backend id, "-" standalone
		Workers     int    `json:"workers"`
		WorkersBusy int    `json:"workers_busy"`
		QueueDepth  int    `json:"queue_depth"`
		QueueLimit  int    `json:"queue_limit"`
		ShedTotal   int64  `json:"shed_total"`
	}{
		Status:      state.String(),
		Ready:       state == StateRunning,
		Backend:     s.backendLabel(),
		Workers:     s.Pool.Size(),
		WorkersBusy: s.Pool.Size() - s.Pool.Idle(),
		QueueDepth:  s.Sched.QueueDepth(),
		QueueLimit:  s.Sched.QueueLimit(),
		ShedTotal:   s.Sched.Stats().Shed(),
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	obs.WriteJSON(w, status, resp)
}

// ServerStats is the server's one snapshot and the one declaration of
// every number on it: /stats is its JSON, /metrics is obs.Encoder.Struct
// of it (prefix phpserve_, base labels app and config), and the signals
// table in docs/OPERATIONS.md is rendered from the tags. Embedded
// library snapshots carry their own tags; nil pointers and nil vectors
// are the "absent without a cache / tree ring / tier" rule. Latencies
// are in microseconds on /stats; simulated totals cover the whole fleet
// since warm-up.
type ServerStats struct {
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
	Stats

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
	CyclesPerRequest  float64 `json:"cycles_per_request" help:"sim_cycles / requests: the mean simulated cost of one request."`
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
// so a cold scrape reports 0, never NaN.
func (s *Server) snapshot() (*ServerStats, *sim.Meter) {
	ps := s.Pool.Snapshot()
	state := s.Sched.State()
	st := &ServerStats{
		App:         s.cfg.App,
		Config:      s.cfg.Core,
		Workers:     s.Pool.Size(),
		WorkersBusy: s.Pool.Size() - s.Pool.Idle(),
		Snapshot:    s.Col.Snapshot(),
		UptimeSec:   time.Since(s.start).Seconds(),
		State:       state.String(),
		Draining:    state != StateRunning,
		QueueDepth:  s.Sched.QueueDepth(),
		QueueLimit:  s.Sched.QueueLimit(),
		Stats:       s.Sched.Stats(),
		AccelStats:  ps.Accel,
	}
	if s.Cache != nil {
		s.Cache.MergeMeter(ps.Meter)
		cs := s.Cache.Stats()
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
	if ring := s.Col.TreeRing(); ring != nil {
		total := ring.Total()
		st.TraceTrees = &total
	}
	return st, ps.Meter
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st, _ := s.snapshot()
	obs.WriteJSON(w, http.StatusOK, st)
}

// handleMetrics renders the Prometheus text-format exposition: the
// snapshot with its scrape window rotated and the tier plane read, plus
// the one family no field can carry — the reservoir's quantiles, as a
// summary whose _sum and _count are the latency histogram's (exact
// since start; the reservoir halves itself, and a summary's are
// counters).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st, mt := s.snapshot()
	st.Window = s.scrapeWindow(mt, st.Requests)
	if s.cfg.Tier != "" {
		ts := s.Pool.TierSnapshot()
		st.Tier = &ts
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := obs.NewEncoder(w)
	e.Struct("phpserve_", []obs.Label{{Name: "app", Value: s.cfg.App}, {Name: "config", Value: s.cfg.Core}}, st)
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
func (s *Server) scrapeWindow(mt *sim.Meter, requests int64) *scrapeWindow {
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
	h := lp.Headline()
	w.HottestFrac, w.FuncsFor65, w.Functions = h.HottestFrac, h.FuncsFor65, h.Functions
	return w
}

// observeLive rotates a fresh epoch into the live profile from an
// already-taken coherent pool snapshot's meter and returns the current
// window. Both /profilez and /metrics route through here, so either
// scrape advances the window.
func (s *Server) observeLive(mt *sim.Meter) (profile.Profile, profile.WindowInfo) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	s.live.Observe(mt, time.Now())
	return s.live.Window()
}

// handleTracez exports the last sampled span trees through the shared
// obs.ServeTracez handler: n (last K trees, default 16, <= 0 for all),
// rid (one request's trees — how the router fetches a backend tree for
// stitching), format=json (Chrome trace_event, default) | folded |
// text | tree (the raw []*obs.Tree interchange).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	ring := s.Col.TreeRing()
	if ring == nil {
		http.Error(w, "tracez: span-tree retention disabled (-treering 0)", http.StatusNotFound)
		return
	}
	obs.ServeTracez(w, r, ring)
}

// handleProfilez serves the live windowed flat profile — the paper's
// Fig. 1/Fig. 4 analysis over current traffic. Parameters: n (top-N
// rows, default 30), format=table (default) | folded (flamegraph
// stacks) | json.
func (s *Server) handleProfilez(w http.ResponseWriter, r *http.Request) {
	ps := s.Pool.Snapshot()
	p, info := s.observeLive(ps.Meter)
	n := obs.QueryInt(r, "n", 30)

	switch format := r.URL.Query().Get("format"); format {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		window := "since boot"
		if !info.SinceBoot {
			window = fmt.Sprintf("last %s (%d epochs)", info.Until.Sub(info.Since).Round(time.Millisecond), info.Epochs)
		}
		fmt.Fprintf(w, "live flat profile: %s (%s), window %s\n%s", s.cfg.App, s.cfg.Core, window, p.Render(n))
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, p.Folded())
	case "json":
		obs.WriteJSON(w, http.StatusOK, profile.NewDoc(s.cfg.App, s.cfg.Core, p, info, profile.Landmarks, n))
	default:
		http.Error(w, fmt.Sprintf("profilez: unknown format %q (want table, folded, or json)", format), http.StatusBadRequest)
	}
}
