package serve

// The router's process surface: the front handler that keys each
// request, the operator endpoints, spawned backends with their rolling
// restart, and ListenAndServe — everything cmd/phprouter runs, so a
// router built in-process is the one the binary runs.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Handler routes the proxy path and the operator surface: / proxies a
// render; /healthz, /backends and /metrics (phprouter_* series, cluster
// aggregates included) report router state; /tracez serves sampled
// router trees with backend trees stitched in; /clusterz the merged
// fleet view; /eventz the cluster event timeline; POST /restart rolls
// every spawned backend through drain → restart → readmit.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", r.handleProxy)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/backends", r.handleBackends)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/tracez", r.handleTracez)
	mux.HandleFunc("/clusterz", r.handleClusterz)
	mux.HandleFunc("/eventz", r.handleEventz)
	mux.HandleFunc("/restart", r.handleRestart)
	return mux
}

// handleProxy derives the request's cache key and proxies it. ?page= is
// read by the parser the backends use (ParsePage: malformed is a 400
// here, before any backend sees it) and keyed by PageKey, so ring owner
// and backend cache agree on which page a request names. A request
// without a page gets a PageKeys draw, rewritten into the query; with
// no PageKeys the key is the request path.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	page, err := ParsePage(req.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if page < 0 && r.cfg.PageKeys != nil {
		page = r.cfg.PageKeys.Next()
		q := req.URL.Query()
		q.Set("page", strconv.Itoa(page))
		req.URL.RawQuery = q.Encode()
	}
	key := req.URL.Path
	if page >= 0 {
		key = PageKey(page)
	}
	r.Proxy(w, req, key)
}

// handleHealthz reports router readiness: 200 while at least one
// backend is up and the router is not draining.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rs := r.Stats()
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
// RouterStats itself, the numbers /metrics carries as series.
func (r *Router) handleBackends(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, r.Stats())
}

// RouterMetrics is everything on the router's /metrics and the one
// declaration of each series: the router's own gauges, the tagged
// RouterStats with its per-backend rows, the observability plane's
// counters, and the cluster view /clusterz also serves.
type RouterMetrics struct {
	UptimeSec   float64 `prom:"uptime_seconds,gauge" help:"Seconds since the router started."`
	NumBackends int     `prom:"backends,gauge" help:"Configured backend count."`
	BackendsUp  int     `prom:"backends_up,gauge" help:"Backends currently healthy and on the ring."`
	RouterStats
	TraceTrees *int64  `prom:"trace_trees_total,counter" help:"Sampled router span trees ever retained in the /tracez ring."`
	Events     obs.Vec `prom:"events_total,counter,by=kind" help:"Cluster events recorded (backend up/down, ring changes, restart phases), by kind."`
	Cluster    ClusterView
}

// handleMetrics renders the phprouter_* series in the Prometheus text
// format, the cluster-level aggregates of a (TTL-coalesced) fleet scrape
// included.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	rs := r.Stats()
	m := RouterMetrics{
		UptimeSec:   time.Since(r.start).Seconds(),
		NumBackends: len(rs.Backends),
		BackendsUp:  rs.UpCount(),
		RouterStats: rs,
		Events:      obs.Vec{},
		Cluster:     r.cluster(req.Context(), rs),
	}
	if r.cfg.TreeRing != nil {
		total := r.cfg.TreeRing.Total()
		m.TraceTrees = &total
	}
	for kind, n := range r.cfg.Events.Counts() {
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

// handleTracez serves the router's sampled span trees — with stitched
// backend subtrees where the backend sampled the same request — in the
// same formats and with the same parameters as phpserve's /tracez
// (n, rid, format=json|folded|text|tree).
func (r *Router) handleTracez(w http.ResponseWriter, req *http.Request) {
	if r.cfg.TreeRing == nil {
		http.Error(w, "tracez: span-tree retention disabled (-treering 0)", http.StatusNotFound)
		return
	}
	obs.ServeTracez(w, req, r.cfg.TreeRing)
}

// handleClusterz serves the merged fleet view.
func (r *Router) handleClusterz(w http.ResponseWriter, req *http.Request) {
	obs.WriteJSON(w, http.StatusOK, r.cluster(req.Context(), r.Stats()))
}

// handleEventz serves the retained cluster events (backend up/down, ring
// ownership changes, rolling restart phases), oldest first. Parameter n
// bounds the tail, read like /tracez's and /profilez's n (default, and
// any malformed value: all retained).
func (r *Router) handleEventz(w http.ResponseWriter, req *http.Request) {
	resp := struct {
		Total  int64            `json:"total"`
		Counts map[string]int64 `json:"counts"`
		Events []obs.Event      `json:"events"`
	}{r.cfg.Events.Total(), r.cfg.Events.Counts(), r.cfg.Events.Last(obs.QueryInt(req, "n", 0))}
	if resp.Events == nil {
		resp.Events = []obs.Event{}
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// handleRestart rolls every spawned backend: drain (evict from the
// ring), SIGTERM, wait for exit, start a fresh process, wait healthy,
// readmit. One backend at a time, so the others keep serving (and keep
// their caches) throughout. External backends answer 501.
func (r *Router) handleRestart(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if r.sup == nil {
		http.Error(w, "restart requires spawned backends (-spawn)", http.StatusNotImplemented)
		return
	}
	if !r.restartMu.TryLock() {
		http.Error(w, "a rolling restart is already in progress", http.StatusConflict)
		return
	}
	defer r.restartMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	progress := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, p := range r.sup.Procs() {
		id := p.ID()
		progress("backend %s: draining and evicting from ring", id)
		r.cfg.Events.Add(time.Now(), obs.EventRestartPhase, id, "drain")
		r.SetBackendUp(id, false)
		stopCtx, cancel := context.WithTimeout(req.Context(), r.cfg.DrainGrace)
		err := p.Stop(stopCtx)
		cancel()
		if err != nil {
			progress("backend %s: %v", id, err)
		}
		r.cfg.Events.Add(time.Now(), obs.EventRestartPhase, id, "restart")
		if err := p.Restart(); err != nil {
			progress("backend %s: restart failed: %v", id, err)
			return
		}
		r.cfg.Events.Add(time.Now(), obs.EventRestartPhase, id, "wait_healthy")
		waitCtx, cancel := context.WithTimeout(req.Context(), r.cfg.DrainGrace+2*time.Minute)
		err = r.WaitHealthy(waitCtx, r.addrOf(id), 100*time.Millisecond)
		cancel()
		if err != nil {
			progress("backend %s: %v", id, err)
			return
		}
		r.SetBackendUp(id, true)
		progress("backend %s: healthy, readmitted to ring", id)
	}
	r.cfg.Events.Add(time.Now(), obs.EventRestartPhase, "", "complete")
	progress("rolling restart complete")
}

// addrOf returns backend id's address.
func (r *Router) addrOf(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backends[id].addr
}

// Spawn starts and supervises n `binary -fpm` backends, backend i on
// 127.0.0.1:baseport+i with args appended, and registers each.
func (r *Router) Spawn(n int, binary string, baseport int, args []string) error {
	r.sup = NewSupervisor()
	r.sup.Logf = func(format string, a ...any) { fmt.Printf("phprouter: "+format+"\n", a...) }
	for i := 0; i < n; i++ {
		id, addr := strconv.Itoa(i), "127.0.0.1:"+strconv.Itoa(baseport+i)
		spec := ProcSpec{ID: id, Binary: binary, Args: append([]string{"-fpm", "-backend", id, "-listen", addr}, args...)}
		if _, err := r.sup.Add(spec); err != nil {
			return err
		}
		r.AddBackend(id, addr)
		fmt.Printf("phprouter: spawned backend %s on %s\n", id, addr)
	}
	return nil
}

// ListenAndServe is the phprouter process. It waits up to StartupWait
// for every backend to answer /healthz (spawned children are still
// warming; one that does not answer is marked down and probed on),
// keeps spawned backends running, probes every backend each
// HealthInterval, and runs on one Go P, like one nginx worker's event
// loop. Then it serves Handler on addr until SIGTERM or SIGINT and
// drains: typed 503s for new requests, in-flight proxies finish, spawned
// backends stop gracefully, all within DrainGrace.
func (r *Router) ListenAndServe(addr string) error {
	sig, stop := signalContext()
	defer stop()
	waitCtx, cancel := context.WithTimeout(sig, r.cfg.StartupWait)
	for _, b := range r.Stats().Backends {
		if err := r.WaitHealthy(waitCtx, b.Addr, 200*time.Millisecond); err != nil {
			fmt.Fprintf(os.Stderr, "phprouter: backend %s: %v (will keep probing)\n", b.ID, err)
			r.SetBackendUp(b.ID, false)
		}
	}
	cancel()
	if r.sup != nil {
		go r.sup.Watch(sig)
	}
	go r.HealthLoop(sig, r.cfg.HealthInterval, func(tr HealthTransition) {
		if tr.Up {
			fmt.Printf("phprouter: backend %s healthy, readmitted to ring\n", tr.ID)
		} else {
			fmt.Printf("phprouter: backend %s unhealthy, evicted from ring (%v)\n", tr.ID, tr.Err)
		}
	})

	procs := SetProcs(1)
	rs := r.Stats()
	fmt.Printf("phprouter: routing on %s (%d backends, %d ring replicas, maxinflight %d, procs %d)\n",
		addr, len(rs.Backends), r.cfg.RingReplicas, r.cfg.MaxInflight, procs)
	err := serveUntilSignal(sig, "phprouter", addr, r.Handler(), r.cfg.DrainGrace, func(ctx context.Context, hs *http.Server) {
		r.SetDraining()
		hs.Shutdown(ctx)
		if r.sup != nil {
			r.sup.StopAll(ctx)
		}
	})
	if err != nil {
		return err
	}
	rs = r.Stats()
	fmt.Printf("phprouter: drained: %d proxied, %d retries, shed %d (overload %d, no_backend %d, draining %d), %d trees stitched (%d errors)\n",
		rs.Requests(), rs.Retries, rs.ShedOverload+rs.ShedNoBackend+rs.ShedDraining,
		rs.ShedOverload, rs.ShedNoBackend, rs.ShedDraining, rs.Stitched, rs.StitchErrors)
	return nil
}
