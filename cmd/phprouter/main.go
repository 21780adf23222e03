// Command phprouter is the cluster front for phpserve: a reverse proxy
// that routes each request to a backend by consistent hash on the page
// key, so every backend's response cache owns a stable slice of the key
// space (the PHP-FPM topology, with cache-affinity dispatch).
//
// Backends come from either -backends (addresses of externally managed
// phpserve -fpm processes) or -spawn N (phprouter launches and
// supervises N phpserve children itself). The router applies the
// serving lifecycle one level up: it health-checks every backend's
// /healthz, evicts draining or dead backends from the ring (their key
// range rebalances to ring successors; everyone else's cache stays
// hot), re-admits them when healthy, sheds with typed 503s before a
// backend saturates, and reroutes on connection-refused so a rolling
// restart (POST /restart) never surfaces a connection error to a
// client.
//
// Usage:
//
//	phprouter [-addr :8090] [-backends host:port,...] [-spawn 4]
//	          [-phpserve ./phpserve] [-baseport 9101] [-backendargs "..."]
//	          [-pages 512] [-zipf 1.0] [-seed 1] [-replicas 512]
//	          [-maxinflight 32] [-health 500ms] [-healthtimeout 1s]
//	          [-retrywait 60s] [-drain 30s]
//	          [-accesslog path|-] [-sample 0.01] [-treering 64]
//	          [-eventbuf 256] [-scrapetimeout 2s]
//
// Endpoints: / proxies renders; /metrics (phprouter_* series, cluster
// aggregates included), /healthz, /backends report router state;
// /tracez serves sampled router span trees with backend trees stitched
// in; /clusterz serves the merged fleet view (aggregate hit ratio,
// per-backend skew, cluster Fig. 1 profile headline); /eventz serves
// the bounded cluster event timeline; POST /restart rolls every spawned
// backend through drain → restart → readmit under load.
//
// Every proxied request carries an X-Request-Id (inbound one kept,
// otherwise minted) that is forwarded to the backend and echoed to the
// client, so one ID correlates the router access-log line, the backend
// line, and the stitched trace tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// router wraps serve.Router with the binary's frontend concerns: page
// key derivation, metrics exposition, and the rolling-restart
// orchestration over supervised children.
type router struct {
	r     *serve.Router
	sup   *serve.Supervisor // nil when backends are external
	start time.Time

	// pageKeys draws a page identity for requests that arrive without
	// one, and the query is rewritten so the backend renders the same
	// page the router hashed (nil when -pages is 0).
	pageKeys *workload.ZipfKeys

	// addrs maps backend id to address for restart/readmission.
	addrs map[string]string

	// restartMu serializes rolling restarts (a second POST /restart
	// while one is running answers 409).
	restartMu sync.Mutex

	drainGrace time.Duration

	// events is the bounded cluster-event timeline behind /eventz and
	// phprouter_events_total; serve.Router appends health transitions,
	// the restart handler appends restart phases.
	events *obs.EventRing
	// treeRing retains sampled (and stitched) router span trees for
	// /tracez; nil with -treering 0.
	treeRing *obs.TreeRing
	// scrapeMu guards the TTL-coalesced fleet scrape cache behind
	// /clusterz and the phprouter_cluster_* gauges.
	scrapeMu   sync.Mutex
	lastScrape *serve.FleetScrape
	scrapeTO   time.Duration
}

// handleProxy derives the request's cache key and forwards it through
// the affinity router. ?page= is read by the parser the backends use
// (serve.ParsePage: malformed is a 400 here, before any backend sees
// it) and keyed by serve.PageKey, so ring owner and backend cache
// agree on which page a request names. Requests without a page get a
// router-drawn Zipf page identity, rewritten into the query so the
// backend renders the page the router hashed; with -pages 0 the key
// falls back to the request path.
func (rt *router) handleProxy(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	page, err := serve.ParsePage(r.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if page < 0 && rt.pageKeys != nil {
		page = rt.pageKeys.Next()
		q := r.URL.Query()
		q.Set("page", strconv.Itoa(page))
		r.URL.RawQuery = q.Encode()
	}
	key := r.URL.Path
	if page >= 0 {
		key = serve.PageKey(page)
	}
	rt.r.Proxy(w, r, key)
}

// handleHealthz reports router readiness: 200 while at least one
// backend is up and the router is not draining.
func (rt *router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rs := rt.r.Stats()
	type backendz struct {
		ID   string `json:"id"`
		Addr string `json:"addr"`
		Up   bool   `json:"up"`
	}
	resp := struct {
		Status     string     `json:"status"` // ready | draining | no_backends
		Ready      bool       `json:"ready"`
		BackendsUp int        `json:"backends_up"`
		Backends   []backendz `json:"backends"`
	}{Status: "ready", Ready: true, BackendsUp: rs.UpCount()}
	for _, b := range rs.Backends {
		resp.Backends = append(resp.Backends, backendz{b.ID, b.Addr, b.Up})
	}
	switch {
	case rs.Draining:
		resp.Status, resp.Ready = "draining", false
	case rs.UpCount() == 0:
		resp.Status, resp.Ready = "no_backends", false
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	obs.WriteJSON(w, status, resp)
}

// handleBackends dumps the routing state as JSON — the tagged
// serve.RouterStats itself, the numbers /metrics carries as series.
func (rt *router) handleBackends(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, rt.r.Stats())
}

// routerMetrics is everything on the router's /metrics and the one
// declaration of each series: the router's own gauges, the tagged
// serve.RouterStats with its per-backend rows, the observability
// plane's counters, and the cluster view /clusterz also serves.
type routerMetrics struct {
	UptimeSec   float64 `prom:"uptime_seconds,gauge" help:"Seconds since the router started."`
	NumBackends int     `prom:"backends,gauge" help:"Configured backend count."`
	BackendsUp  int     `prom:"backends_up,gauge" help:"Backends currently healthy and on the ring."`
	serve.RouterStats
	TraceTrees *int64  `prom:"trace_trees_total,counter" help:"Sampled router span trees ever retained in the /tracez ring."`
	Events     obs.Vec `prom:"events_total,counter,by=kind" help:"Cluster events recorded (backend up/down, ring changes, restart phases), by kind."`
	Cluster    clusterStats
}

// handleMetrics renders the phprouter_* series in the Prometheus text
// format, the cluster-level aggregates of a (TTL-coalesced) fleet scrape
// included.
func (rt *router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rs := rt.r.Stats()
	m := routerMetrics{
		UptimeSec:   time.Since(rt.start).Seconds(),
		NumBackends: len(rs.Backends),
		BackendsUp:  rs.UpCount(),
		RouterStats: rs,
		Events:      obs.Vec{},
		Cluster:     rt.cluster(r.Context(), rs),
	}
	if rt.treeRing != nil {
		total := rt.treeRing.Total()
		m.TraceTrees = &total
	}
	for kind, n := range rt.events.Counts() {
		m.Events = append(m.Events, obs.VecEntry{Name: kind, Value: float64(n)})
	}
	sort.Slice(m.Events, func(i, j int) bool { return m.Events[i].Name < m.Events[j].Name })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := obs.NewEncoder(w)
	e.Struct("phprouter_", nil, m)
	if err := e.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "phprouter: metrics write: %v\n", err)
	}
}

// handleRestart rolls every supervised backend: drain (evict from the
// ring), SIGTERM, wait for exit, start a fresh process, wait healthy,
// readmit. One backend at a time, so N-1 backends keep serving (and
// keep their caches) throughout. External-backend mode answers 501.
func (rt *router) handleRestart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if rt.sup == nil {
		http.Error(w, "restart requires spawned backends (-spawn)", http.StatusNotImplemented)
		return
	}
	if !rt.restartMu.TryLock() {
		http.Error(w, "a rolling restart is already in progress", http.StatusConflict)
		return
	}
	defer rt.restartMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	progress := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, p := range rt.sup.Procs() {
		id := p.ID()
		progress("backend %s: draining and evicting from ring", id)
		rt.events.Add(time.Now(), obs.EventRestartPhase, id, "drain")
		rt.r.SetBackendUp(id, false)
		stopCtx, cancel := context.WithTimeout(r.Context(), rt.drainGrace)
		err := p.Stop(stopCtx)
		cancel()
		if err != nil {
			progress("backend %s: %v", id, err)
		}
		rt.events.Add(time.Now(), obs.EventRestartPhase, id, "restart")
		if err := p.Restart(); err != nil {
			progress("backend %s: restart failed: %v", id, err)
			return
		}
		rt.events.Add(time.Now(), obs.EventRestartPhase, id, "wait_healthy")
		waitCtx, cancel := context.WithTimeout(r.Context(), rt.drainGrace+2*time.Minute)
		err = rt.r.WaitHealthy(waitCtx, rt.addrs[id], 100*time.Millisecond)
		cancel()
		if err != nil {
			progress("backend %s: %v", id, err)
			return
		}
		rt.r.SetBackendUp(id, true)
		progress("backend %s: healthy, readmitted to ring", id)
	}
	rt.events.Add(time.Now(), obs.EventRestartPhase, "", "complete")
	progress("rolling restart complete")
}

func (rt *router) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", rt.handleProxy)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/backends", rt.handleBackends)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/tracez", rt.handleTracez)
	mux.HandleFunc("/clusterz", rt.handleClusterz)
	mux.HandleFunc("/eventz", rt.handleEventz)
	mux.HandleFunc("/restart", rt.handleRestart)
	return mux
}

func main() {
	addr := flag.String("addr", ":8090", "router listen address")
	backendsFlag := flag.String("backends", "", "comma-separated backend addresses (host:port) of externally managed phpserve -fpm processes")
	spawn := flag.Int("spawn", 0, "spawn and supervise this many phpserve backend processes (mutually exclusive with -backends)")
	phpserveBin := flag.String("phpserve", "./phpserve", "phpserve binary to spawn backends from (spawn mode)")
	baseport := flag.Int("baseport", 9101, "first backend port; backend i listens on 127.0.0.1:baseport+i (spawn mode)")
	backendArgs := flag.String("backendargs", "", "extra space-separated flags passed to every spawned phpserve (e.g. \"-cache 64 -workers 2\")")
	pages := flag.Int("pages", 512, "page universe for router-drawn page identities; 0 routes on the raw request path instead")
	zipf := flag.Float64("zipf", 1.0, "Zipf exponent for router-drawn page identities")
	seed := flag.Int64("seed", 1, "seed for the router's page-identity sampler")
	replicas := flag.Int("replicas", 2048, "virtual nodes per backend on the affinity ring (more = smoother key split)")
	maxInflight := flag.Int("maxinflight", 32, "per-backend inflight cap; beyond it the router sheds 503 (0 unlimited)")
	healthEvery := flag.Duration("health", 500*time.Millisecond, "backend /healthz probe interval")
	healthTO := flag.Duration("healthtimeout", time.Second, "per-probe timeout")
	retryWait := flag.Duration("retrywait", 60*time.Second, "startup budget for spawned backends to become healthy (covers warmup)")
	drainTO := flag.Duration("drain", 30*time.Second, "grace for router drain on SIGTERM and per-backend drain during rolling restarts")
	accessLog := flag.String("accesslog", "", "JSON-lines access log for sampled proxied requests and every shed (path, - for stdout, empty disables)")
	sample := flag.Float64("sample", 0.01, "per-request router span-tree sampling rate in [0,1]")
	treeRingSize := flag.Int("treering", 64, "sampled router span trees retained for /tracez, backend trees stitched in (0 disables)")
	eventBuf := flag.Int("eventbuf", 256, "cluster events retained for /eventz")
	scrapeTO := flag.Duration("scrapetimeout", 2*time.Second, "budget for one fleet scrape pass behind /clusterz and the phprouter_cluster_* gauges")
	flag.Parse()

	var external []string
	if *backendsFlag != "" {
		for _, a := range strings.Split(*backendsFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				external = append(external, a)
			}
		}
	}
	if err := validateRouterFlags(external, *spawn, *pages, *zipf, *maxInflight, *replicas, *healthEvery, *healthTO, *drainTO); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err := validateObsFlags(*sample, *treeRingSize, *eventBuf, *scrapeTO); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	logW, logC, err := obs.OpenAccessLog(*accessLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var alog *obs.AccessLog
	if logW != nil {
		alog = obs.NewAccessLog(logW)
	}
	events := obs.NewEventRing(*eventBuf)
	var treeRing *obs.TreeRing
	if *treeRingSize > 0 {
		treeRing = obs.NewTreeRing(*treeRingSize)
	}

	rt := &router{
		r: serve.NewRouter(serve.RouterConfig{
			RingReplicas:  *replicas,
			MaxInflight:   *maxInflight,
			HealthTimeout: *healthTO,
			SampleRate:    *sample,
			TreeRing:      treeRing,
			AccessLog:     alog,
			Events:        events,
		}),
		start:      time.Now(),
		addrs:      make(map[string]string),
		drainGrace: *drainTO,
		events:     events,
		treeRing:   treeRing,
		scrapeTO:   *scrapeTO,
	}
	if *pages > 0 {
		keys, err := workload.NewZipfKeys(*seed, *zipf, *pages)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rt.pageKeys = keys
	}

	if *spawn > 0 {
		rt.sup = serve.NewSupervisor()
		rt.sup.Logf = func(format string, args ...any) {
			fmt.Printf("phprouter: "+format+"\n", args...)
		}
		extra := strings.Fields(*backendArgs)
		for i := 0; i < *spawn; i++ {
			id := strconv.Itoa(i)
			baddr := "127.0.0.1:" + strconv.Itoa(*baseport+i)
			args := append([]string{"-fpm", "-backend", id, "-listen", baddr}, extra...)
			if _, err := rt.sup.Add(serve.ProcSpec{ID: id, Binary: *phpserveBin, Args: args}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			rt.addrs[id] = baddr
			rt.r.AddBackend(id, baddr)
			fmt.Printf("phprouter: spawned backend %s on %s\n", id, baddr)
		}
	} else {
		for i, baddr := range external {
			id := strconv.Itoa(i)
			rt.addrs[id] = baddr
			rt.r.AddBackend(id, baddr)
			fmt.Printf("phprouter: backend %s at %s\n", id, baddr)
		}
	}

	rootCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	// Wait for every backend to answer /healthz before serving: spawned
	// children are still warming their pools, and external backends may
	// not be up yet. Failures here mark the backend down; the health
	// loop keeps probing and admits it when it recovers.
	waitCtx, cancel := context.WithTimeout(rootCtx, *retryWait)
	for id, baddr := range rt.addrs {
		if err := rt.r.WaitHealthy(waitCtx, baddr, 200*time.Millisecond); err != nil {
			fmt.Fprintf(os.Stderr, "phprouter: backend %s: %v (will keep probing)\n", id, err)
			rt.r.SetBackendUp(id, false)
		}
	}
	cancel()

	if rt.sup != nil {
		go rt.sup.Watch(rootCtx)
	}
	go rt.r.HealthLoop(rootCtx, *healthEvery, func(tr serve.HealthTransition) {
		if tr.Up {
			fmt.Printf("phprouter: backend %s healthy, readmitted to ring\n", tr.ID)
		} else {
			fmt.Printf("phprouter: backend %s unhealthy, evicted from ring (%v)\n", tr.ID, tr.Err)
		}
	})

	fmt.Printf("phprouter: routing on %s (%d backends, %d ring replicas, maxinflight %d)\n",
		*addr, len(rt.addrs), *replicas, *maxInflight)
	httpSrv := &http.Server{Addr: *addr, Handler: rt.handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-rootCtx.Done():
	}
	stop()

	// Drain: shed new requests (typed 503s), let in-flight proxies
	// finish, then stop the children gracefully.
	fmt.Printf("phprouter: draining (grace %v)\n", *drainTO)
	rt.r.SetDraining()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	httpSrv.Shutdown(dctx)
	if rt.sup != nil {
		rt.sup.StopAll(dctx)
	}
	rs := rt.r.Stats()
	fmt.Printf("phprouter: drained: %d proxied, %d retries, shed %d (overload %d, no_backend %d, draining %d), %d trees stitched (%d errors)\n",
		rs.Requests(), rs.Retries, rs.ShedOverload+rs.ShedNoBackend+rs.ShedDraining,
		rs.ShedOverload, rs.ShedNoBackend, rs.ShedDraining, rs.Stitched, rs.StitchErrors)
	if logC != nil {
		logC.Close()
	}
}

// validateObsFlags checks the observability flag family.
func validateObsFlags(sample float64, treering, eventbuf int, scrapeTO time.Duration) error {
	if sample < 0 || sample > 1 {
		return fmt.Errorf("phprouter: -sample must be in [0,1], got %g", sample)
	}
	if treering < 0 {
		return fmt.Errorf("phprouter: -treering must be >= 0, got %d", treering)
	}
	if eventbuf <= 0 {
		return fmt.Errorf("phprouter: -eventbuf must be positive, got %d", eventbuf)
	}
	if scrapeTO <= 0 {
		return fmt.Errorf("phprouter: -scrapetimeout must be positive, got %v", scrapeTO)
	}
	return nil
}

// validateRouterFlags fails fast on inconsistent flag values.
func validateRouterFlags(external []string, spawn, pages int, zipf float64, maxInflight, replicas int, healthEvery, healthTO, drain time.Duration) error {
	if spawn < 0 {
		return fmt.Errorf("phprouter: -spawn must be >= 0, got %d", spawn)
	}
	if spawn > 0 && len(external) > 0 {
		return fmt.Errorf("phprouter: -spawn and -backends are mutually exclusive")
	}
	if spawn == 0 && len(external) == 0 {
		return fmt.Errorf("phprouter: need backends: set -spawn N or -backends host:port,...")
	}
	if pages < 0 {
		return fmt.Errorf("phprouter: -pages must be >= 0, got %d", pages)
	}
	if pages > 0 && zipf <= 0 {
		return fmt.Errorf("phprouter: -zipf must be positive with -pages, got %g", zipf)
	}
	if maxInflight < 0 {
		return fmt.Errorf("phprouter: -maxinflight must be >= 0, got %d", maxInflight)
	}
	if replicas <= 0 {
		return fmt.Errorf("phprouter: -replicas must be positive, got %d", replicas)
	}
	if healthEvery <= 0 || healthTO <= 0 {
		return fmt.Errorf("phprouter: -health and -healthtimeout must be positive, got %v/%v", healthEvery, healthTO)
	}
	if drain < 0 {
		return fmt.Errorf("phprouter: -drain must be >= 0, got %v", drain)
	}
	return nil
}
