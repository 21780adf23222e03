package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Router shed reasons, exported so the metrics layer and tests name the
// same strings. They parallel the scheduler's shed vocabulary one level
// up: the router sheds before a backend saturates, the scheduler sheds
// when it does anyway.
const (
	// RouterShedOverload: the key's owner is up but at its inflight cap.
	RouterShedOverload = "overload"
	// RouterShedNoBackend: no healthy backend remained for the key.
	RouterShedNoBackend = "no_backend"
	// RouterShedDraining: the router itself is draining for shutdown.
	RouterShedDraining = "draining"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// MaxInflight caps concurrently proxied requests per backend;
	// beyond it the router sheds 503 rather than queueing onto a
	// saturated backend (<= 0 means unlimited).
	MaxInflight int
	// Transport carries every request to a backend (nil selects the
	// synchronous hop: 30s per exchange, MaxInflight idle conns each).
	Transport http.RoundTripper
	// HealthTimeout bounds one /healthz probe (<= 0 selects 1s).
	HealthTimeout time.Duration

	// SampleRate is the fraction of proxied requests that record a
	// router-side span tree in TreeRing — and, when the backend sampled
	// the same request, stitch the backend's tree under the proxy span.
	// 0 disables tree recording; request-ID propagation stays on.
	SampleRate float64
	// TreeRing retains sampled router trees for GET /tracez (nil
	// disables tree recording regardless of SampleRate).
	TreeRing *obs.TreeRing
	// AccessLog, when non-nil, receives one JSON line per sampled proxy
	// and per shed, carrying the router fields (request_id, backend,
	// rerouted, shed_reason) alongside the phpserve line schema.
	AccessLog *obs.AccessLog
	// Events, when non-nil, records cluster lifecycle transitions
	// (backend up/down, ring membership changes) for GET /eventz.
	Events *obs.EventRing

	// PageKeys draws a page for a request that names none, rewritten
	// into the query so the backend renders the page the router hashed
	// (nil keys such a request on its path).
	PageKeys *workload.ZipfKeys
	// DrainGrace bounds the router's drain in ListenAndServe.
	DrainGrace time.Duration
	// HealthInterval is how often ListenAndServe probes every backend,
	// after one probe of each before it serves.
	HealthInterval time.Duration
}

// routerBackend is the router's view of one backend process.
type routerBackend struct {
	id   string
	addr string // host:port

	up       bool
	inflight int

	requests  int64 // proxied requests answered by this backend
	errors    int64 // transport failures against this backend
	shed      int64 // requests shed at this backend's inflight cap
	cacheHits int64 // responses this backend answered with X-Cache: HIT
	lat       *obs.Histogram
}

// Router is the cluster front: it owns the cache-affinity ring over
// healthy backends and proxies each request to its key's owner, with
// the PR-4 lifecycle vocabulary applied one level up — typed 503 sheds
// before backends saturate, health-driven membership, and retry-on-
// refused so a mid-restart backend costs a reroute, never a client-
// visible connection error. Safe for concurrent use.
type Router struct {
	cfg       RouterConfig
	transport http.RoundTripper

	// ids mints X-Request-Id values for requests that arrive without
	// one; sampler decides which proxies record a span tree. Both are
	// concurrency-safe and live outside mu.
	ids     *obs.IDSource
	sampler *obs.Sampler

	mu       sync.Mutex
	ring     *cache.Ring
	backends map[string]*routerBackend
	order    []string // registration order, for stable reporting
	draining bool

	shedOverload  int64
	shedNoBackend int64
	shedDraining  int64
	retries       int64
	stitched      int64 // backend trees grafted under a router proxy span
	stitchErrors  int64 // stitch fetches that failed or found no tree

	start time.Time
}

// NewRouter builds a router with no backends; register them with
// AddBackend.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	transport := cfg.Transport
	if transport == nil {
		transport = newHop(cfg.MaxInflight)
	}
	return &Router{
		cfg:       cfg,
		transport: transport,
		ids:       obs.NewIDSource(),
		sampler:   obs.NewSampler(cfg.SampleRate),
		ring:      cache.NewRing(cache.DefaultRingReplicas),
		backends:  make(map[string]*routerBackend),
		start:     time.Now(),
	}
}

// AddBackend registers a backend at addr (host:port) and admits it to
// the ring as up. Registering an existing id updates its address.
func (r *Router) AddBackend(id, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.backends[id]; ok {
		b.addr = addr
		return
	}
	r.backends[id] = &routerBackend{
		id: id, addr: addr, up: true,
		lat: obs.NewHistogram(obs.DefLatencyBuckets()),
	}
	r.order = append(r.order, id)
	r.ring.Add(id)
	r.cfg.Events.Add(time.Now(), obs.EventRingChange, id, "joined ring")
}

// SetBackendUp flips a backend's health state, adjusting ring
// membership: marking down removes its virtual nodes (its key range
// rebalances to ring successors), marking up re-admits them (the same
// range returns — ring assignment is deterministic). Returns true when
// the state actually changed.
func (r *Router) SetBackendUp(id string, up bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.backends[id]
	if !ok || b.up == up {
		return false
	}
	b.up = up
	now := time.Now()
	if up {
		r.ring.Add(id)
		r.cfg.Events.Add(now, obs.EventBackendUp, id, "")
		r.cfg.Events.Add(now, obs.EventRingChange, id, "virtual nodes re-admitted")
	} else {
		r.ring.Remove(id)
		r.cfg.Events.Add(now, obs.EventBackendDown, id, "")
		r.cfg.Events.Add(now, obs.EventRingChange, id, "virtual nodes removed")
	}
	return true
}

// SetDraining moves the router to the draining state: every subsequent
// request is shed with 503 + Retry-After while in-flight proxies
// finish (HTTPServer.Shutdown provides the barrier).
func (r *Router) SetDraining() {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
}

// maxProxyBody is the largest request body the router buffers and
// forwards.
const maxProxyBody = 1 << 20

// errRerouted marks attempt outcomes that should move on to the next
// ring owner instead of answering the client.
var errRerouted = errors.New("serve: attempt rerouted")

// Proxy forwards req to the healthy ring owner of key, walking the
// ring-order fallback sequence on connection failure or backend-side
// 503 (a draining or overloaded backend), so rolling restarts cost
// reroutes, never client-visible connection errors. Requests are shed
// with typed 503s when the router is draining, the owner is at its
// inflight cap, or no healthy backend remains.
func (r *Router) Proxy(w http.ResponseWriter, req *http.Request, key string) {
	po := r.beginProxyObs(w, req)
	defer r.finishProxyObs(po)

	r.mu.Lock()
	if r.draining {
		r.shedDraining++
		r.mu.Unlock()
		po.noteShed(RouterShedDraining)
		shedHTTP(w, RouterShedDraining, "router draining")
		return
	}
	candidates := r.ring.Owners(key, len(r.backends))
	r.mu.Unlock()
	po.noteRoute()

	// Buffer the request body once so reroutes can replay it; the
	// workload is GET-only, so this path is a correctness guard, not a
	// hot path. A body is forwarded whole or not at all: one past
	// maxProxyBody is a 413 and one that fails to read a 400, and no
	// backend sees either.
	var body []byte
	if req.Body != nil && req.Body != http.NoBody {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, req.Body, maxProxyBody))
		req.Body.Close()
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			po.noteStatus(status)
			http.Error(w, http.StatusText(status)+": "+err.Error(), status)
			return
		}
	}

	var lastStatus int
	var lastBody []byte
	for try, id := range candidates {
		status, respBody, err := r.attempt(w, req, id, body, po, try)
		if err == nil {
			return // answered the client
		}
		if !errors.Is(err, errRerouted) {
			// Shed decided inside the attempt (inflight cap).
			return
		}
		lastStatus, lastBody = status, respBody
	}
	if lastStatus != 0 {
		// Every candidate answered 503 (all draining/overloaded): relay
		// the final backend's typed shed rather than inventing one.
		po.noteRelayedShed(lastStatus)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(lastStatus)
		w.Write(lastBody)
		return
	}
	r.mu.Lock()
	r.shedNoBackend++
	r.mu.Unlock()
	po.noteShed(RouterShedNoBackend)
	shedHTTP(w, RouterShedNoBackend, "no healthy backend for key")
}

// attempt proxies one try against backend id. It returns nil when the
// client was answered (success or terminal failure), errRerouted when
// the caller should try the next candidate (with the 503 status/body
// to relay if no candidate remains), and handles shed accounting for
// the inflight cap internally.
func (r *Router) attempt(w http.ResponseWriter, req *http.Request, id string, body []byte, po *proxyObs, try int) (int, []byte, error) {
	r.mu.Lock()
	b, ok := r.backends[id]
	if !ok || !b.up {
		r.mu.Unlock()
		return 0, nil, errRerouted
	}
	if r.cfg.MaxInflight > 0 && b.inflight >= r.cfg.MaxInflight {
		b.shed++
		r.shedOverload++
		r.mu.Unlock()
		// The key's owner is saturated. Shedding (not rerouting) is
		// deliberate: rerouting overload would duplicate the owner's key
		// range onto its neighbour's cache and melt the ring's affinity
		// exactly when the cluster is hottest.
		po.noteShed(RouterShedOverload)
		shedHTTP(w, RouterShedOverload, "backend "+id+" at inflight cap")
		return 0, nil, nil
	}
	b.inflight++
	addr := b.addr
	r.mu.Unlock()

	spanStart := po.sinceStart()
	t0 := time.Now()
	resp, err := r.forward(req, addr, body)
	elapsed := time.Since(t0)
	po.noteAttempt(id, try, spanStart, elapsed)

	r.mu.Lock()
	b.inflight--
	if err != nil {
		b.errors++
	}
	r.mu.Unlock()

	if err != nil {
		if retryableNetErr(err) {
			// Connection refused/reset: the process is restarting or
			// gone. Evict it from the ring (the health loop re-admits it)
			// and walk to the next owner.
			r.SetBackendUp(id, false)
			r.bumpRetries()
			return 0, nil, errRerouted
		}
		po.noteStatus(http.StatusBadGateway)
		http.Error(w, "bad gateway: "+err.Error(), http.StatusBadGateway)
		return 0, nil, nil
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusServiceUnavailable {
		// The backend itself shed — it is draining or saturated below
		// our inflight view. Its key range is better served elsewhere
		// until health checks catch up.
		respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		r.bumpRetries()
		return resp.StatusCode, respBody, errRerouted
	}

	r.mu.Lock()
	b.requests++
	b.lat.Observe(elapsed.Seconds())
	if resp.Header.Get("X-Cache") == "HIT" {
		b.cacheHits++
	}
	r.mu.Unlock()

	for k, vs := range resp.Header {
		if k == obs.HeaderRequestID || k == obs.HeaderTraceSampled {
			// The client's X-Request-Id was already set from the router's
			// authoritative value; the trace-sampled handshake is
			// router-internal signalling.
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Routed-Backend", id)
	w.WriteHeader(resp.StatusCode)
	n, _ := io.Copy(w, resp.Body) // HTTPServer's ReadFrom: straight into the response buffer
	po.noteServed(id, addr, try > 0, resp.StatusCode, int(n),
		resp.Header.Get(obs.HeaderTraceSampled) == "1")
	return 0, nil, nil
}

// forward issues the outbound copy of req against addr.
func (r *Router) forward(req *http.Request, addr string, body []byte) (*http.Response, error) {
	url := "http://" + addr + req.URL.RequestURI()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, url, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range req.Header {
		out.Header[k] = vs
	}
	return r.transport.RoundTrip(out)
}

// bumpRetries counts one reroute.
func (r *Router) bumpRetries() {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
}

// retryableNetErr reports whether a transport error indicates the
// backend process is unreachable (restarting, not yet listening) —
// the cases where trying the next ring owner is safe and right.
func retryableNetErr(err error) bool {
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		return true // dial/read/write against a dead process
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// shedHTTP writes a typed router shed: 503, Retry-After, and the
// reason in X-Router-Shed so tests and operators can tell router sheds
// from backend sheds.
func shedHTTP(w http.ResponseWriter, reason, msg string) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("X-Router-Shed", reason)
	http.Error(w, "503 service unavailable: "+msg, http.StatusServiceUnavailable)
}

// HealthTransition records one backend health flip observed by a check
// sweep.
type HealthTransition struct {
	// ID is the backend whose state changed.
	ID string
	// Up is the new state.
	Up bool
	// Err is the probe failure that caused a down transition (nil on
	// up transitions).
	Err error
}

// CheckBackends probes every backend's /healthz once and applies the
// results to ring membership, returning the transitions (empty when
// nothing changed). A 2xx answer is healthy; anything else — including
// a 503 from a draining backend — is not.
func (r *Router) CheckBackends(ctx context.Context) []HealthTransition {
	r.mu.Lock()
	type probe struct{ id, addr string }
	probes := make([]probe, 0, len(r.order))
	for _, id := range r.order {
		probes = append(probes, probe{id, r.backends[id].addr})
	}
	r.mu.Unlock()

	var out []HealthTransition
	for _, p := range probes {
		up, err := r.probeHealth(ctx, p.addr)
		if r.SetBackendUp(p.id, up) {
			out = append(out, HealthTransition{ID: p.id, Up: up, Err: err})
		}
	}
	return out
}

// probeHealth issues one GET /healthz against addr.
func (r *Router) probeHealth(ctx context.Context, addr string) (bool, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.HealthTimeout)
	defer cancel()
	body, err := r.fetchBody(ctx, "http://"+addr+"/healthz")
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, io.LimitReader(body, 1<<16))
	body.Close()
	return true, nil
}

// fetchBody issues one GET to a backend — health probe or trace-stitch
// fetch — and returns the response body reader, or an error for any
// non-2xx answer.
func (r *Router) fetchBody(ctx context.Context, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.transport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		return nil, fmt.Errorf("serve: GET %s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

// HealthLoop runs CheckBackends every interval until ctx is done,
// reporting each transition to onChange (nil disables reporting).
func (r *Router) HealthLoop(ctx context.Context, interval time.Duration, onChange func(HealthTransition)) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, tr := range r.CheckBackends(ctx) {
				if onChange != nil {
					onChange(tr)
				}
			}
		}
	}
}

// BackendStats is one backend's row in RouterStats: a /backends row as
// JSON, and on /metrics one series per tagged field labelled
// backend=<ID> (obs.Encoder.Struct).
type BackendStats struct {
	ID   string `json:"id" prom:"backend,label"`
	Addr string `json:"addr"`
	// Up is the router's current health view.
	Up        bool  `json:"up" prom:"backend_up,gauge" help:"1 while the labelled backend is healthy and owns its key range."`
	Inflight  int   `json:"inflight" prom:"backend_inflight,gauge" help:"Requests currently proxied to the labelled backend."`
	Requests  int64 `json:"requests" prom:"requests_total,counter" help:"Requests answered by the labelled backend."`
	Errors    int64 `json:"errors" prom:"backend_errors_total,counter" help:"Transport failures against the labelled backend."`
	Shed      int64 `json:"shed" prom:"backend_shed_total,counter" help:"Requests shed at the labelled backend's inflight cap."`
	CacheHits int64 `json:"cache_hits" prom:"backend_cache_hits_total,counter" help:"Responses the labelled backend served from its cache (X-Cache: HIT)."`
	// Latency is in seconds.
	Latency obs.HistogramSnapshot `json:"-" prom:"backend_latency_seconds,histogram" help:"Proxied request latency through the labelled backend."`
}

// RouterStats is a consistent snapshot of the router's state: /backends
// is its JSON, the phprouter_* routing series are obs.Encoder.Struct of
// it. The shed reasons in the tags are the RouterShed* constants.
type RouterStats struct {
	Draining bool `json:"draining" prom:"draining,gauge" help:"1 while the router is draining for shutdown."`
	// Backends holds per-backend rows in registration order.
	Backends      []BackendStats `json:"backends"`
	ShedOverload  int64          `json:"-" prom:"shed_total,counter,reason=overload" help:"Router-level sheds by reason."`
	ShedNoBackend int64          `json:"-" prom:"shed_total,counter,reason=no_backend"`
	ShedDraining  int64          `json:"-" prom:"shed_total,counter,reason=draining"`
	Retries       int64          `json:"retries" prom:"retries_total,counter" help:"Reroutes to a fallback ring owner (refused connection or backend-side 503)."`
	// StitchErrors includes fetches that found no matching tree at the
	// backend.
	Stitched     int64 `json:"-" prom:"stitched_trees_total,counter" help:"Backend span trees fetched and grafted under a router proxy span."`
	StitchErrors int64 `json:"-" prom:"stitch_errors_total,counter" help:"Backend tree fetches that failed (tree evicted, backend gone, decode error)."`
}

// Requests sums proxied requests across backends.
func (rs RouterStats) Requests() int64 {
	var n int64
	for _, b := range rs.Backends {
		n += b.Requests
	}
	return n
}

// UpCount returns how many backends are currently up.
func (rs RouterStats) UpCount() int {
	n := 0
	for _, b := range rs.Backends {
		if b.Up {
			n++
		}
	}
	return n
}

// Stats returns a consistent snapshot of router and per-backend
// counters.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := RouterStats{
		Draining:      r.draining,
		ShedOverload:  r.shedOverload,
		ShedNoBackend: r.shedNoBackend,
		ShedDraining:  r.shedDraining,
		Retries:       r.retries,
		Stitched:      r.stitched,
		StitchErrors:  r.stitchErrors,
	}
	for _, id := range r.order {
		b := r.backends[id]
		rs.Backends = append(rs.Backends, BackendStats{
			ID: b.id, Addr: b.addr, Up: b.up, Inflight: b.inflight,
			Requests: b.requests, Errors: b.errors, Shed: b.shed,
			CacheHits: b.cacheHits, Latency: b.lat.Snapshot(),
		})
	}
	return rs
}
