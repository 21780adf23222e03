package serve

// The router's process surface: the front handler that keys each
// request, the operator endpoints, and ListenAndServe — everything
// cmd/phprouter runs, so a router built in-process is the one the
// binary runs.

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
// render; /healthz, /backends and /metrics (phprouter_* series) report
// what the router itself saw; /tracez serves sampled router trees with
// backend trees stitched in; /eventz the cluster event timeline. No
// operator endpoint contacts a backend.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", r.handleProxy)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/backends", r.handleBackends)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/tracez", r.handleTracez)
	mux.HandleFunc("/eventz", r.handleEventz)
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
// RouterStats with its per-backend rows, and the observability plane's
// counters. Fleet-wide numbers are sums over the per-backend series.
type RouterMetrics struct {
	UptimeSec   float64 `prom:"uptime_seconds,gauge" help:"Seconds since the router started."`
	NumBackends int     `prom:"backends,gauge" help:"Configured backend count."`
	BackendsUp  int     `prom:"backends_up,gauge" help:"Backends currently healthy and on the ring."`
	RouterStats
	TraceTrees *int64  `prom:"trace_trees_total,counter" help:"Sampled router span trees ever retained in the /tracez ring."`
	Events     obs.Vec `prom:"events_total,counter,by=kind" help:"Cluster events recorded (backend up/down, ring changes), by kind."`
}

// handleMetrics renders the phprouter_* series in the Prometheus text
// format.
func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	rs := r.Stats()
	m := RouterMetrics{
		UptimeSec:   time.Since(r.start).Seconds(),
		NumBackends: len(rs.Backends),
		BackendsUp:  rs.UpCount(),
		RouterStats: rs,
		Events:      obs.Vec{},
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

// handleEventz serves the retained cluster events (backend up/down and
// ring ownership changes), oldest first. Parameter n bounds the tail,
// read like /tracez's and /profilez's n (default, and any malformed
// value: all retained).
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

// ListenAndServe is the phprouter process: it serves until the first
// SIGTERM or SIGINT, then drains, and prints each ring eviction and
// readmission on stdout.
func (r *Router) ListenAndServe(addr string) error {
	sig, stop := signalContext()
	defer stop()
	r.log = os.Stdout
	return r.listenAndServe(sig, addr)
}

// listenAndServe probes every backend once (one that does not answer is
// evicted, and readmitted by the health loop once it does), probes them
// all every HealthInterval after that, and runs on one Go P, like one
// nginx worker's event loop. It serves Handler on addr until sig is done
// and drains: typed 503s for new requests while in-flight proxies
// finish, within DrainGrace.
func (r *Router) listenAndServe(sig context.Context, addr string) error {
	for _, tr := range r.CheckBackends(sig) {
		r.report(tr)
	}
	go r.HealthLoop(sig, r.cfg.HealthInterval, r.report)

	procs := SetProcs(1)
	rs := r.Stats()
	fmt.Printf("phprouter: routing on %s (%d backends, maxinflight %d, procs %d)\n",
		addr, len(rs.Backends), r.cfg.MaxInflight, procs)
	err := serveUntilSignal(sig, "phprouter", addr, r.Handler(), r.cfg.DrainGrace, func(ctx context.Context, hs *HTTPServer) {
		r.SetDraining()
		hs.Shutdown(ctx)
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
