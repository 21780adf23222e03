package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/cache"
)

// testBackend is a minimal phpserve stand-in: a real response cache
// behind an HTTP handler with /healthz, draining state, X-Cache and
// X-Backend headers, and a restartable listener on a stable address —
// everything the router contract needs, none of the VM cost.
type testBackend struct {
	id   string
	addr string

	mu       sync.Mutex
	draining bool
	pages    map[int]int // page -> times rendered or served here
	cache    *cache.Cache
	srv      *http.Server
	lis      net.Listener
}

func newTestBackend(t *testing.T, id string) *testBackend {
	t.Helper()
	b := &testBackend{
		id:    id,
		pages: make(map[int]int),
		cache: cache.New(cache.Config{Capacity: 1024}),
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = lis.Addr().String()
	b.serveOn(lis)
	t.Cleanup(func() { b.stop() })
	return b
}

func (b *testBackend) serveOn(lis net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		draining := b.draining
		b.mu.Unlock()
		if draining {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		draining := b.draining
		b.mu.Unlock()
		if draining {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		page, _ := strconv.Atoi(r.URL.Query().Get("page"))
		body, outcome, err := b.cache.GetOrFill(r.Context(), "page:"+strconv.Itoa(page), func() ([]byte, error) {
			return []byte(fmt.Sprintf("page %d body", page)), nil
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		b.mu.Lock()
		b.pages[page]++
		b.mu.Unlock()
		w.Header().Set("X-Cache", map[bool]string{true: "HIT", false: "MISS"}[outcome == cache.Hit])
		w.Header().Set("X-Backend", b.id)
		w.Write(body)
	})
	srv := &http.Server{Handler: mux}
	b.mu.Lock()
	b.srv, b.lis = srv, lis
	b.mu.Unlock()
	go srv.Serve(lis)
}

func (b *testBackend) setDraining(v bool) {
	b.mu.Lock()
	b.draining = v
	b.mu.Unlock()
}

// stop closes the listener and all connections — subsequent dials are
// refused, like a process mid-restart.
func (b *testBackend) stop() {
	b.mu.Lock()
	srv := b.srv
	b.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// restart re-listens on the same address with fresh draining=false
// (cache retained, as a warm restart would not be — irrelevant to
// these tests, which assert routing, not backend warmth).
func (b *testBackend) restart(t *testing.T) {
	t.Helper()
	b.setDraining(false)
	var lis net.Listener
	var err error
	for i := 0; i < 50; i++ { // the old socket can linger briefly
		lis, err = net.Listen("tcp", b.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten %s: %v", b.addr, err)
	}
	b.serveOn(lis)
}

func (b *testBackend) pagesSeen() map[int]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int]int, len(b.pages))
	for k, v := range b.pages {
		out[k] = v
	}
	return out
}

func newTestRouter(backends ...*testBackend) *Router {
	r := NewRouter(RouterConfig{HealthTimeout: time.Second})
	for _, b := range backends {
		r.AddBackend(b.id, b.addr)
	}
	return r
}

func routerServer(t *testing.T, r *Router) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		key := "page:" + req.URL.Query().Get("page")
		r.Proxy(w, req, key)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRouterDisjointCacheOwnership is the tentpole e2e property: with
// two backends, every page key is owned by exactly one backend (checked
// via X-Backend), repeat requests for a page are HITs on that same
// backend (checked via X-Cache and the backends' own hit counters), and
// the two backends' page sets are disjoint.
func TestRouterDisjointCacheOwnership(t *testing.T) {
	b0, b1 := newTestBackend(t, "0"), newTestBackend(t, "1")
	r := newTestRouter(b0, b1)
	front := routerServer(t, r)

	const pages = 32
	ownerOf := make(map[int]string)
	for round := 0; round < 3; round++ {
		for page := 0; page < pages; page++ {
			resp, err := http.Get(front.URL + "/?page=" + strconv.Itoa(page))
			if err != nil {
				t.Fatalf("round %d page %d: %v", round, page, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d page %d: status %d", round, page, resp.StatusCode)
			}
			backend := resp.Header.Get("X-Backend")
			xc := resp.Header.Get("X-Cache")
			if prev, ok := ownerOf[page]; ok && prev != backend {
				t.Fatalf("page %d moved from backend %s to %s with stable membership", page, prev, backend)
			}
			ownerOf[page] = backend
			if round == 0 && xc != "MISS" {
				t.Fatalf("first request for page %d: X-Cache = %s, want MISS", page, xc)
			}
			if round > 0 && xc != "HIT" {
				t.Fatalf("repeat request for page %d on backend %s: X-Cache = %s, want HIT", page, backend, xc)
			}
		}
	}

	// Disjoint ownership, observed server-side.
	seen0, seen1 := b0.pagesSeen(), b1.pagesSeen()
	for p := range seen0 {
		if _, both := seen1[p]; both {
			t.Fatalf("page %d served by both backends", p)
		}
	}
	if len(seen0)+len(seen1) != pages {
		t.Fatalf("page sets cover %d pages, want %d", len(seen0)+len(seen1), pages)
	}
	if len(seen0) == 0 || len(seen1) == 0 {
		t.Fatalf("degenerate split: %d vs %d pages", len(seen0), len(seen1))
	}

	// Per-backend hit counters: each backend saw 3 requests per owned
	// page, 1 miss + 2 hits.
	for i, b := range []*testBackend{b0, b1} {
		st := b.cache.Stats()
		owned := len(b.pagesSeen())
		if int(st.Misses) != owned || int(st.Hits) != 2*owned {
			t.Fatalf("backend %d cache stats: hits %d misses %d, want %d/%d", i, st.Hits, st.Misses, 2*owned, owned)
		}
	}

	// Router-side per-backend accounting agrees.
	rs := r.Stats()
	if rs.Requests() != 3*pages {
		t.Fatalf("router requests = %d, want %d", rs.Requests(), 3*pages)
	}
	for _, bs := range rs.Backends {
		want := map[string]int{"0": len(seen0), "1": len(seen1)}[bs.ID]
		if int(bs.CacheHits) != 2*want {
			t.Fatalf("router view of backend %s hits = %d, want %d", bs.ID, bs.CacheHits, 2*want)
		}
	}
}

// TestRouterRetryOnRefused: a dead backend (connection refused) is
// evicted and its keys rerouted to the surviving backend within the
// same request — the client sees 200, not a transport error.
func TestRouterRetryOnRefused(t *testing.T) {
	b0, b1 := newTestBackend(t, "0"), newTestBackend(t, "1")
	r := newTestRouter(b0, b1)
	front := routerServer(t, r)

	// Find a page owned by b0, then kill b0.
	var page int
	for p := 0; p < 1000; p++ {
		if owners := r.ring.Owners("page:"+strconv.Itoa(p), 1); len(owners) == 1 && owners[0] == "0" {
			page = p
			break
		}
	}
	b0.stop()

	resp, err := http.Get(front.URL + "/?page=" + strconv.Itoa(page))
	if err != nil {
		t.Fatalf("client saw transport error: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via reroute", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Backend"); got != "1" {
		t.Fatalf("rerouted to backend %q, want 1", got)
	}
	if backendUp(r, "0") {
		t.Fatal("dead backend still marked up after refused connection")
	}
	if rs := r.Stats(); rs.Retries == 0 {
		t.Fatal("reroute not counted in Retries")
	}
}

// TestRouterRefusesBodyItCannotForward: a request body reaches the
// backend whole or not at all. A body at the cap is forwarded byte for
// byte; one past it is a 413 and one that fails to read a 400, and the
// backend hears of neither.
func TestRouterRefusesBodyItCannotForward(t *testing.T) {
	var mu sync.Mutex
	var received []int // body length of each request the backend saw
	be := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, _ := io.Copy(io.Discard, req.Body)
		mu.Lock()
		received = append(received, int(n))
		mu.Unlock()
		io.WriteString(w, "ok")
	}))
	defer be.Close()
	r := NewRouter(RouterConfig{})
	r.AddBackend("0", be.Listener.Addr().String())
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	post := func(size int) int {
		t.Helper()
		resp, err := http.Post(front.URL+"/?page=3", "application/octet-stream", bytes.NewReader(make([]byte, size)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := post(maxProxyBody); status != http.StatusOK {
		t.Errorf("body at the cap: status %d, want 200", status)
	}
	if status := post(maxProxyBody + 4096); status != http.StatusRequestEntityTooLarge {
		t.Errorf("body past the cap: status %d, want 413", status)
	}
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/?page=3", iotest.ErrReader(errors.New("connection reset"))))
	if w.Code != http.StatusBadRequest {
		t.Errorf("body that fails to read: status %d, want 400", w.Code)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || received[0] != maxProxyBody {
		t.Errorf("backend received bodies of %v bytes, want one of %d", received, maxProxyBody)
	}
}

// TestRouterShedOverload: the owner at its inflight cap sheds with a
// typed 503 instead of queueing or rerouting (rerouting overload would
// break cache affinity exactly under peak load).
func TestRouterShedOverload(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			io.WriteString(w, "ok")
			return
		}
		<-release
		io.WriteString(w, "slow body")
	}))
	defer slow.Close()
	defer close(release)

	r := NewRouter(RouterConfig{MaxInflight: 1})
	r.AddBackend("0", slow.Listener.Addr().String())
	front := routerServer(t, r)

	go http.Get(front.URL + "/?page=1") // occupies the single inflight slot
	waitFor(t, time.Second, func() bool { return r.Stats().Backends[0].Inflight == 1 })

	resp, err := http.Get(front.URL + "/?page=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
	if got := resp.Header.Get("X-Router-Shed"); got != RouterShedOverload {
		t.Fatalf("shed reason %q, want %q", got, RouterShedOverload)
	}
	if rs := r.Stats(); rs.ShedOverload != 1 || rs.Backends[0].Shed != 1 {
		t.Fatalf("shed accounting: router %d backend %d, want 1/1", rs.ShedOverload, rs.Backends[0].Shed)
	}
}

// TestRouterDrainingShed: a draining router sheds every request with a
// typed 503.
func TestRouterDrainingShed(t *testing.T) {
	b0 := newTestBackend(t, "0")
	r := newTestRouter(b0)
	front := routerServer(t, r)
	r.SetDraining()

	resp, err := http.Get(front.URL + "/?page=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("X-Router-Shed") != RouterShedDraining {
		t.Fatalf("status %d shed %q, want 503/%s", resp.StatusCode, resp.Header.Get("X-Router-Shed"), RouterShedDraining)
	}
	if rs := r.Stats(); rs.ShedDraining != 1 || !rs.Draining {
		t.Fatalf("draining accounting: %+v", rs)
	}
}

// TestRouterHealthTransitions: CheckBackends evicts a draining backend
// (healthz 503) from the ring and re-admits it when it recovers, with
// the same key range restored.
func TestRouterHealthTransitions(t *testing.T) {
	b0, b1 := newTestBackend(t, "0"), newTestBackend(t, "1")
	r := newTestRouter(b0, b1)
	ctx := context.Background()

	keysOf := func() map[string]string {
		out := make(map[string]string)
		for p := 0; p < 64; p++ {
			k := "page:" + strconv.Itoa(p)
			if o := r.ring.Owners(k, 1); len(o) == 1 {
				out[k] = o[0]
			}
		}
		return out
	}
	before := keysOf()

	if tr := r.CheckBackends(ctx); len(tr) != 0 {
		t.Fatalf("healthy sweep produced transitions: %+v", tr)
	}
	b0.setDraining(true)
	tr := r.CheckBackends(ctx)
	if len(tr) != 1 || tr[0].ID != "0" || tr[0].Up {
		t.Fatalf("drain sweep transitions: %+v", tr)
	}
	for k, owner := range keysOf() {
		if owner != "1" {
			t.Fatalf("key %s still owned by %s after eviction", k, owner)
		}
		if before[k] == "1" && owner != "1" {
			t.Fatalf("unrelated key %s moved", k)
		}
	}

	b0.setDraining(false)
	tr = r.CheckBackends(ctx)
	if len(tr) != 1 || tr[0].ID != "0" || !tr[0].Up {
		t.Fatalf("recovery sweep transitions: %+v", tr)
	}
	after := keysOf()
	for k := range before {
		if after[k] != before[k] {
			t.Fatalf("key %s owned by %s after readmission, want %s", k, after[k], before[k])
		}
	}
}

// TestRouterRollingRestartZeroDrops is the acceptance-criteria test: a
// full rolling restart (drain → evict → kill → restart → readmit) of
// each backend in turn, under continuous client load, with zero
// transport errors — every response is 200 or a typed 503 with
// Retry-After.
func TestRouterRollingRestartZeroDrops(t *testing.T) {
	b0, b1 := newTestBackend(t, "0"), newTestBackend(t, "1")
	backends := []*testBackend{b0, b1}
	r := newTestRouter(b0, b1)
	front := routerServer(t, r)

	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	go r.HealthLoop(hctx, 10*time.Millisecond, nil)

	var (
		wg                      sync.WaitGroup
		mu                      sync.Mutex
		transportErrs           []error
		badStatus               []int
		served, shed, untypedOK = 0, 0, true
	)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(front.URL + "/?page=" + strconv.Itoa((c*31+i)%24))
				mu.Lock()
				if err != nil {
					transportErrs = append(transportErrs, err)
				} else {
					switch resp.StatusCode {
					case http.StatusOK:
						served++
					case http.StatusServiceUnavailable:
						shed++
						if resp.Header.Get("Retry-After") == "" {
							untypedOK = false
						}
					default:
						badStatus = append(badStatus, resp.StatusCode)
					}
				}
				mu.Unlock()
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(c)
	}

	// Roll each backend: drain (healthz 503) → health loop evicts →
	// hard stop (refused) → restart → health loop readmits.
	for _, b := range backends {
		b.setDraining(true)
		waitFor(t, 2*time.Second, func() bool { return !backendUp(r, b.id) })
		b.stop()
		time.Sleep(50 * time.Millisecond) // clients hit the refused window
		b.restart(t)
		waitFor(t, 2*time.Second, func() bool { return backendUp(r, b.id) })
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if len(transportErrs) > 0 {
		t.Fatalf("%d client-visible transport errors during rolling restart; first: %v", len(transportErrs), transportErrs[0])
	}
	if len(badStatus) > 0 {
		t.Fatalf("unexpected statuses during rolling restart: %v", badStatus)
	}
	if !untypedOK {
		t.Fatal("a 503 was missing Retry-After")
	}
	if served == 0 {
		t.Fatal("no requests served during the roll")
	}
	t.Logf("rolling restart: %d served, %d typed sheds, 0 transport errors", served, shed)

	// Both backends are back on the ring and own keys again.
	if !backendUp(r, "0") || !backendUp(r, "1") {
		t.Fatalf("backends not readmitted: up0=%v up1=%v", backendUp(r, "0"), backendUp(r, "1"))
	}
}

// backendUp reports a backend's health as Stats shows it.
func backendUp(r *Router, id string) bool {
	for _, b := range r.Stats().Backends {
		if b.ID == id {
			return b.Up
		}
	}
	return false
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
