package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// obsBackend is a phpserve stand-in for the observability contract: it
// echoes X-Request-Id (minting standalone is phpserve's job, not
// exercised here), signals X-Trace-Sampled, retains a per-request span
// tree with simulated cycles, serves it at /tracez?rid=&format=tree,
// and writes a JSON access-log line per request.
type obsBackend struct {
	id   string
	addr string
	srv  *http.Server

	mu      sync.Mutex
	sample  bool // answer every request as sampled
	seenIDs []string
	trees   map[string]*obs.Tree
	log     bytes.Buffer
}

func newObsBackend(t *testing.T, id string, sample bool) *obsBackend {
	t.Helper()
	b := &obsBackend{id: id, sample: sample, trees: make(map[string]*obs.Tree)}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = lis.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		rid := r.URL.Query().Get("rid")
		b.mu.Lock()
		tree := b.trees[rid]
		b.mu.Unlock()
		var trees []*obs.Tree
		if tree != nil {
			trees = append(trees, tree)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(trees)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(obs.HeaderRequestID)
		b.mu.Lock()
		b.seenIDs = append(b.seenIDs, rid)
		sampled := b.sample
		if sampled {
			// The real backend retains its tree *before* writing the
			// response body (ObserveHTTP runs first), which is what makes
			// the router's post-response stitch fetch race-free.
			b.trees[rid] = backendVMTree(rid, time.Now())
		}
		json.NewEncoder(&b.log).Encode(map[string]any{
			"request_id": rid, "backend": b.id, "sampled": sampled,
		})
		b.mu.Unlock()
		w.Header().Set(obs.HeaderRequestID, rid)
		if sampled {
			w.Header().Set(obs.HeaderTraceSampled, "1")
		}
		w.Header().Set("X-Backend", b.id)
		io.WriteString(w, "page body")
	})
	b.srv = &http.Server{Handler: mux}
	go b.srv.Serve(lis)
	t.Cleanup(func() { b.srv.Close() })
	return b
}

// backendVMTree builds a backend-side render tree carrying simulated
// cycles, shaped like phpserve's request→render trees.
func backendVMTree(rid string, start time.Time) *obs.Tree {
	var v sim.CategoryVec
	v[sim.CatHash] = 700
	var root sim.CategoryVec
	root[sim.CatHash] = 700
	root[sim.CatOther] = 300
	render := &obs.TreeSpan{Name: "render", Start: 50 * time.Microsecond,
		Dur: 2 * time.Millisecond, Cycles: 700, Categories: v}
	return &obs.Tree{
		ID: rid, Worker: 0, Start: start,
		Root: &obs.TreeSpan{Name: "request", Dur: 3 * time.Millisecond,
			Cycles: 1000, Categories: root, Children: []*obs.TreeSpan{render}},
	}
}

func (b *obsBackend) lastSeenID() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.seenIDs) == 0 {
		return ""
	}
	return b.seenIDs[len(b.seenIDs)-1]
}

// logLines decodes the backend's JSON access-log lines.
func (b *obsBackend) logLines(t *testing.T) []map[string]any {
	b.mu.Lock()
	defer b.mu.Unlock()
	return decodeJSONLines(t, b.log.String())
}

func decodeJSONLines(t *testing.T, s string) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad log line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

// obsRouter builds a router with the full observability plane on.
func obsRouter(logBuf *bytes.Buffer, backends ...*obsBackend) (*Router, *obs.TreeRing, *obs.EventRing) {
	ring := obs.NewTreeRing(64)
	events := obs.NewEventRing(64)
	cfg := RouterConfig{
		Client:        &http.Client{Timeout: 5 * time.Second},
		HealthTimeout: time.Second,
		SampleRate:    1,
		TreeRing:      ring,
		Events:        events,
	}
	if logBuf != nil {
		cfg.AccessLog = obs.NewAccessLog(logBuf)
	}
	r := NewRouter(cfg)
	for _, b := range backends {
		r.AddBackend(b.id, b.addr)
	}
	return r, ring, events
}

// TestRequestIDPropagation is the e2e correlation gate: one request ID
// appears in the client response header, the router's access-log line,
// the backend's access-log line, and the router's span-tree root.
func TestRequestIDPropagation(t *testing.T) {
	b := newObsBackend(t, "0", true)
	var logBuf bytes.Buffer
	r, ring, _ := obsRouter(&logBuf, b)
	front := routerServer(t, r)

	resp, err := http.Get(front.URL + "/?page=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	rid := resp.Header.Get(obs.HeaderRequestID)
	if rid == "" {
		t.Fatal("client response missing X-Request-Id")
	}
	if got := resp.Header.Get(obs.HeaderTraceSampled); got != "" {
		t.Fatalf("internal X-Trace-Sampled header leaked to client: %q", got)
	}
	if got := b.lastSeenID(); got != rid {
		t.Fatalf("backend saw id %q, client saw %q", got, rid)
	}
	routerLines := decodeJSONLines(t, logBuf.String())
	if len(routerLines) != 1 {
		t.Fatalf("router log lines = %d, want 1", len(routerLines))
	}
	if got := routerLines[0]["request_id"]; got != rid {
		t.Fatalf("router log request_id = %v, want %s", got, rid)
	}
	if got := routerLines[0]["backend"]; got != "0" {
		t.Fatalf("router log backend = %v, want 0", got)
	}
	backendLines := b.logLines(t)
	if len(backendLines) != 1 || backendLines[0]["request_id"] != rid {
		t.Fatalf("backend log lines = %+v, want one with request_id %s", backendLines, rid)
	}
	trees := ring.Last(0)
	if len(trees) != 1 || trees[0].ID != rid {
		t.Fatalf("router trees = %d, want 1 with ID %s", len(trees), rid)
	}
}

// TestRequestIDInboundPreserved: a client-supplied ID is kept (after
// sanitization) rather than replaced, so an upstream LB's ID survives.
func TestRequestIDInboundPreserved(t *testing.T) {
	b := newObsBackend(t, "0", false)
	r, _, _ := obsRouter(nil, b)
	front := routerServer(t, r)

	req, _ := http.NewRequest(http.MethodGet, front.URL+"/?page=1", nil)
	req.Header.Set(obs.HeaderRequestID, "lb-abc123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderRequestID); got != "lb-abc123" {
		t.Fatalf("inbound id not preserved: got %q", got)
	}
	if got := b.lastSeenID(); got != "lb-abc123" {
		t.Fatalf("backend saw %q, want lb-abc123", got)
	}
}

// TestStitchBackendTree: a sampled request on a sampled backend yields
// one stitched tree — backend request grafted under the router's proxy
// span, cycles propagated up, telescoping invariant intact.
func TestStitchBackendTree(t *testing.T) {
	b := newObsBackend(t, "0", true)
	r, ring, _ := obsRouter(nil, b)
	front := routerServer(t, r)

	resp, err := http.Get(front.URL + "/?page=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	trees := ring.Last(0)
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	tree := trees[0]
	chain := obs.FindSpan(tree, "proxy:0")
	if chain == nil {
		t.Fatalf("no proxy:0 span in router tree")
	}
	proxy := chain[len(chain)-1]
	if len(proxy.Children) != 1 || proxy.Children[0].Name != "request" {
		t.Fatalf("proxy span children = %+v, want one backend request span", proxy.Children)
	}
	if proxy.Cycles != 1000 || tree.Root.Cycles != 1000 {
		t.Fatalf("cycles: proxy %g root %g, want 1000/1000", proxy.Cycles, tree.Root.Cycles)
	}
	// Telescoping: summed self cycles equal the root's inclusive total.
	var selfSum float64
	tree.Root.Walk(func(sp *obs.TreeSpan, _ int) { selfSum += sp.SelfCycles() })
	if selfSum != tree.Root.Cycles {
		t.Fatalf("telescoping broken: %g != %g", selfSum, tree.Root.Cycles)
	}
	st := r.Stats()
	if st.Stitched != 1 || st.StitchErrors != 0 {
		t.Fatalf("stitched=%d errors=%d, want 1/0", st.Stitched, st.StitchErrors)
	}
}

// TestRouterShedLogged: sheds are always logged (sampling-independent)
// with a request ID and typed reason.
func TestRouterShedLogged(t *testing.T) {
	b := newObsBackend(t, "0", false)
	var logBuf bytes.Buffer
	r, _, _ := obsRouter(&logBuf, b)
	r.SetDraining()
	front := routerServer(t, r)

	resp, err := http.Get(front.URL + "/?page=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	lines := decodeJSONLines(t, logBuf.String())
	if len(lines) != 1 {
		t.Fatalf("log lines = %d, want 1", len(lines))
	}
	if lines[0]["shed_reason"] != RouterShedDraining {
		t.Fatalf("shed_reason = %v, want %s", lines[0]["shed_reason"], RouterShedDraining)
	}
	if lines[0]["request_id"] == "" || lines[0]["request_id"] == nil {
		t.Fatal("shed line missing request_id")
	}
}

// TestRouterEventsOnHealthFlips: SetBackendUp transitions land in the
// event ring with per-kind counts.
func TestRouterEventsOnHealthFlips(t *testing.T) {
	b0, b1 := newObsBackend(t, "0", false), newObsBackend(t, "1", false)
	r, _, events := obsRouter(nil, b0, b1)

	if got := events.Counts()[obs.EventRingChange]; got != 2 {
		t.Fatalf("ring_change after registration = %d, want 2", got)
	}
	r.SetBackendUp("1", false)
	r.SetBackendUp("1", true)
	counts := events.Counts()
	if counts[obs.EventBackendDown] != 1 || counts[obs.EventBackendUp] != 1 {
		t.Fatalf("counts = %+v", counts)
	}
	if counts[obs.EventRingChange] != 4 {
		t.Fatalf("ring_change = %d, want 4 (2 joins + down + up)", counts[obs.EventRingChange])
	}
	last := events.Last(2)
	if len(last) != 2 || last[0].Kind != obs.EventBackendUp || last[1].Kind != obs.EventRingChange {
		t.Fatalf("last events = %+v", last)
	}
}

// stubUpstream is an http.RoundTripper standing in for the backends: it
// counts the round trips the router makes and answers each with the same
// small page, so the proxy's own work is all a measurement sees.
type stubUpstream struct{ trips int64 }

func (u *stubUpstream) RoundTrip(req *http.Request) (*http.Response, error) {
	atomic.AddInt64(&u.trips, 1)
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"text/html"}},
		Body:       io.NopCloser(strings.NewReader("page body")),
		Request:    req,
	}, nil
}

// TestRouterObsBudget pins what the router's observability plane (ID
// propagation, access log, span sampling at the production rate of 0.01,
// event ring) may add to a proxied request, as its causes rather than as
// a latency ratio (that is the benchmark's phprouter.hop_self_us row):
// one upstream round trip per request, exactly every 100th request
// sampled and logged, and an unsampled request allocating no more than
// the plain proxy's plus a pinned surcharge.
func TestRouterObsBudget(t *testing.T) {
	const requests = 1000
	var log bytes.Buffer
	ring := obs.NewTreeRing(64)
	plainUp, obsUp := &stubUpstream{}, &stubUpstream{}
	plain := NewRouter(RouterConfig{Client: &http.Client{Transport: plainUp}})
	instrumented := NewRouter(RouterConfig{
		Client:     &http.Client{Transport: obsUp},
		SampleRate: 0.01,
		TreeRing:   ring,
		AccessLog:  obs.NewAccessLog(&log),
		Events:     obs.NewEventRing(256),
	})
	proxy := func(r *Router) {
		rec := httptest.NewRecorder()
		// Built by hand: httptest.NewRequest parses through a sync.Pool,
		// whose occasional miss would show in the count below.
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/", RawQuery: "page=1"}, Header: http.Header{}}
		r.Proxy(rec, req, "page:1")
		if rec.Code != http.StatusOK || rec.Body.String() != "page body" {
			t.Fatalf("proxied answer: %d %q", rec.Code, rec.Body.String())
		}
	}
	for _, side := range []struct {
		name string
		r    *Router
		up   *stubUpstream
	}{{"plain", plain, plainUp}, {"instrumented", instrumented, obsUp}} {
		side.r.AddBackend("0", "127.0.0.1:1") // never dialled: the stub answers
		for i := 0; i < requests; i++ {
			proxy(side.r)
		}
		st := side.r.Stats()
		if trips := atomic.LoadInt64(&side.up.trips); trips != requests || st.Requests() != requests {
			t.Errorf("%s router: %d upstream round trips, %d proxied answers for %d requests, want one each",
				side.name, trips, st.Requests(), requests)
		}
		if st.Retries != 0 || st.StitchErrors != 0 || st.Backends[0].Errors != 0 || st.Backends[0].Shed != 0 {
			t.Errorf("%s router stats %+v, want no retry, error or shed", side.name, st)
		}
	}
	if got := ring.Total(); got != requests/100 {
		t.Errorf("sampled %d span trees over %d requests at rate 0.01, want exactly %d", got, requests, requests/100)
	}
	if got := strings.Count(log.String(), "\n"); got != requests/100 {
		t.Errorf("access log has %d lines, want one per sampled request (%d)", got, requests/100)
	}

	if raceEnabled {
		t.Log("allocation budget not checked under -race: sync.Pool drops at random there")
		return
	}
	noGC(t)
	// Both samplers stand at a multiple of 100, so the next 98 requests
	// (AllocsPerRun's warm-up batch and the measured one) are unsampled.
	const batch = 49
	perRequest := func(r *Router) float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < batch; i++ {
				proxy(r)
			}
		}) / batch
	}
	plainAllocs, obsAllocs := perRequest(plain), perRequest(instrumented)
	if got := ring.Total(); got != requests/100 {
		t.Fatalf("the measured window sampled a request (%d trees)", got)
	}
	// Measured 37 allocations per proxied request on both routers (the
	// test's own request and recorder included): the
	// plane adds nothing to a request it does not sample.
	const surcharge = 0.5
	t.Logf("allocs/request: plain proxy %.2f, instrumented unsampled %.2f", plainAllocs, obsAllocs)
	if obsAllocs > plainAllocs+surcharge {
		t.Errorf("an unsampled request through the instrumented router allocates %.2f times, plain proxy %.2f: over the +%.1f budget",
			obsAllocs, plainAllocs, surcharge)
	}
}
