package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingListener counts the connections a backend accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// hopBackend serves a fixed page on a counting listener; configure, when
// non-nil, adjusts the server before it starts.
func hopBackend(t *testing.T, handler http.HandlerFunc, configure func(*http.Server)) (string, *countingListener) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: lis}
	srv := &http.Server{Handler: handler}
	if configure != nil {
		configure(srv)
	}
	go srv.Serve(cl)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), cl
}

// proxyOnce drives one request through the router without a front
// server and returns the recorded answer.
func proxyOnce(ctx context.Context, r *Router) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/?page=1", nil).WithContext(ctx)
	r.Proxy(rec, req, "page:1")
	return rec
}

// checkCleanRun fails unless the router answered without a reroute, a
// transport error or a shed, and still has backend 0 on the ring.
func checkCleanRun(t *testing.T, r *Router) {
	t.Helper()
	st := r.Stats()
	if st.Retries != 0 || st.Backends[0].Errors != 0 || st.Backends[0].Shed != 0 ||
		st.ShedOverload+st.ShedNoBackend+st.ShedDraining != 0 || !st.Backends[0].Up {
		t.Fatalf("router stats %+v, backend %+v: want no retry, error or shed and the backend up", st, st.Backends[0])
	}
}

// TestHopOneConnectionNoGoroutines: sequential proxied requests share
// one keep-alive connection, and an idle connection costs the router no
// goroutine (net/http.Transport keeps a read and a write loop on each).
func TestHopOneConnectionNoGoroutines(t *testing.T) {
	const requests = 1000
	page := strings.Repeat("x", 7<<10)
	addr, lis := hopBackend(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "7168")
		io.WriteString(w, page)
	}, nil)
	r := NewRouter(RouterConfig{})
	r.AddBackend("0", addr)

	base := runtime.NumGoroutine()
	for i := 0; i < requests; i++ {
		if rec := proxyOnce(context.Background(), r); rec.Code != http.StatusOK || rec.Body.Len() != len(page) {
			t.Fatalf("request %d: status %d, %d body bytes", i, rec.Code, rec.Body.Len())
		}
	}
	if got := lis.accepted.Load(); got != 1 {
		t.Fatalf("%d sequential requests opened %d connections, want 1", requests, got)
	}
	checkCleanRun(t, r)
	// The backend's http.Server serves the one open connection on one
	// goroutine; the router side adds none.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base+1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with one idle connection, want at most %d (baseline %d + the backend's server goroutine)",
				runtime.NumGoroutine(), base+1, base)
		}
	}
}

// TestHopSurvivesIdleCloses: a backend that closes keep-alive
// connections — by answering Connection: close, or by an idle timeout
// shorter than the gap between requests — costs the router neither a
// reroute nor an eviction: a stale connection is redialled, not blamed.
func TestHopSurvivesIdleCloses(t *testing.T) {
	for _, tc := range []struct {
		name      string
		closeEach int           // answer Connection: close on every n-th request (0: never)
		idle      time.Duration // backend IdleTimeout (0: none)
		gap       time.Duration // pause between requests
		requests  int
	}{
		{name: "connection-close", closeEach: 2, requests: 200},
		{name: "idle-timeout", idle: 5 * time.Millisecond, gap: 50 * time.Millisecond, requests: 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n atomic.Int64
			addr, lis := hopBackend(t, func(w http.ResponseWriter, _ *http.Request) {
				if i := n.Add(1); tc.closeEach > 0 && i%int64(tc.closeEach) == 0 {
					w.Header().Set("Connection", "close")
				}
				io.WriteString(w, "page body")
			}, func(s *http.Server) { s.IdleTimeout = tc.idle })
			r := NewRouter(RouterConfig{})
			r.AddBackend("0", addr)
			for i := 0; i < tc.requests; i++ {
				if rec := proxyOnce(context.Background(), r); rec.Code != http.StatusOK {
					t.Fatalf("request %d: status %d %q", i, rec.Code, rec.Body.String())
				}
				time.Sleep(tc.gap)
			}
			checkCleanRun(t, r)
			if got := lis.accepted.Load(); got < 2 {
				t.Fatalf("backend accepted %d connections: it never closed one, so nothing was tested", got)
			}
		})
	}
}

// TestHopCancelStalledBackend: a client that gives up on a stalled
// backend gets its proxy back while the backend is still stalled — a
// proxy that waited would relay the page the backend sends after 20 s —
// and the connection is closed rather than pooled. Cancellation is the
// client's doing, so the backend is neither evicted nor rerouted from.
func TestHopCancelStalledBackend(t *testing.T) {
	arrived, gone := make(chan struct{}), make(chan struct{})
	addr, _ := hopBackend(t, func(w http.ResponseWriter, req *http.Request) {
		close(arrived)
		select {
		case <-req.Context().Done(): // the server saw the router close the connection
			close(gone)
		case <-time.After(20 * time.Second):
			io.WriteString(w, "stalled page")
		}
	}, nil)
	r := NewRouter(RouterConfig{})
	r.AddBackend("0", addr)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived
		cancel()
	}()
	rec := proxyOnce(ctx, r)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("cancelled proxy answered %d %q, want 502", rec.Code, rec.Body.String())
	}
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the backend never saw the cancelled connection close")
	}
	h := r.transport.(*hop)
	h.mu.Lock()
	idle := len(h.idle[addr])
	h.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d connections pooled after a cancelled exchange, want 0", idle)
	}
	st := r.Stats()
	if st.Retries != 0 || !st.Backends[0].Up {
		t.Fatalf("cancellation rerouted or evicted: %+v", st)
	}
}

// TestHopErrors: the hop names what ended an exchange, so the router's
// reroute rule (retryableNetErr) sees a refused dial as a dead backend
// and a cancellation or a timeout as neither.
func TestHopErrors(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := lis.Addr().String()
	lis.Close()
	h := &hop{timeout: 50 * time.Millisecond, idle: make(map[string][]*hopConn)}
	get := func(ctx context.Context, addr string) error {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/", nil)
		resp, err := h.RoundTrip(req)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	if err := get(context.Background(), dead); !retryableNetErr(err) {
		t.Fatalf("refused dial: %v, want a retryable net error", err)
	}
	stalled, _ := hopBackend(t, func(http.ResponseWriter, *http.Request) { time.Sleep(time.Second) }, nil)
	if err := get(context.Background(), stalled); !errors.Is(err, errHopTimeout) || retryableNetErr(err) {
		t.Fatalf("stalled backend: %v, want errHopTimeout", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := get(ctx, stalled); !errors.Is(err, context.Canceled) || retryableNetErr(err) {
		t.Fatalf("cancelled request: %v, want context.Canceled", err)
	}
}

// TestProcs: the processor budget is the worker count, capped at the
// CPUs and never below one.
func TestProcs(t *testing.T) {
	for _, tc := range []struct{ workers, ncpu, want int }{
		{1, 2, 1}, // a cluster_cache backend, or the router, on 2 CPUs
		{2, 2, 2},
		{4, 2, 2},
		{4, 8, 4},
		{0, 8, 1},
		{3, 1, 1},
	} {
		if got := procs(tc.workers, tc.ncpu); got != tc.want {
			t.Errorf("procs(%d workers, %d CPUs) = %d, want %d", tc.workers, tc.ncpu, got, tc.want)
		}
	}
}
