package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeUntilSignal: the lifecycle both binaries share serves until
// its signal context is done, then hands drain a live HTTPServer and a
// context bounded by the grace; a listener that cannot start is the
// error, with drain never called.
func TestServeUntilSignal(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	sig, stop := context.WithCancel(context.Background())
	served := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	done := make(chan error, 1)
	var drained atomic.Bool
	go func() {
		done <- serveUntilSignal(sig, "test", addr, h, time.Minute, func(ctx context.Context, hs *HTTPServer) {
			if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > time.Minute {
				t.Errorf("drain context deadline %v (set %v), want within the grace", dl, ok)
			}
			drained.Store(true)
			hs.Shutdown(ctx)
		})
	}()
	go func() {
		for {
			if resp, err := http.Get("http://" + addr + "/"); err == nil {
				resp.Body.Close()
				close(served)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	<-served
	stop()
	if err := <-done; err != nil || !drained.Load() {
		t.Fatalf("after the signal: error %v, drained %v; want nil and true", err, drained.Load())
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Error("listener still answering after the drain")
	}

	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	err = serveUntilSignal(context.Background(), "test", busy.Addr().String(), h, time.Minute, func(context.Context, *HTTPServer) {
		t.Error("drain called for a listener that never started")
	})
	if err == nil {
		t.Error("a taken address served")
	}
}

// TestRouterListenAndServe drives the phprouter process path. One probe
// pass before serving evicts a backend that nothing answers for, so the
// router's first /healthz already counts one backend up. The health loop
// readmits that backend once it starts, and the signal drains the router
// and ends the call without error.
func TestRouterListenAndServe(t *testing.T) {
	t.Setenv("GOMAXPROCS", strconv.Itoa(runtime.GOMAXPROCS(0))) // SetProcs(1) leaves the test binary's Ps alone
	freeAddr := func() string {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		return lis.Addr().String()
	}
	healthy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"status":"ok"}`) })
	live := httptest.NewServer(healthy)
	defer live.Close()
	lateAddr, addr := freeAddr(), freeAddr()

	r := NewRouter(RouterConfig{HealthInterval: 20 * time.Millisecond, DrainGrace: 5 * time.Second})
	r.AddBackend("0", strings.TrimPrefix(live.URL, "http://"))
	r.AddBackend("1", lateAddr)
	sig, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- r.listenAndServe(sig, addr) }()

	var resp *http.Response
	waitFor(t, 5*time.Second, func() bool {
		var err error
		resp, err = http.Get("http://" + addr + "/healthz")
		return err == nil
	})
	var hz struct {
		BackendsUp int `json:"backends_up"`
	}
	err := json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || hz.BackendsUp != 1 {
		t.Fatalf("first /healthz: status %d, backends_up %d (%v); want 200 and 1", resp.StatusCode, hz.BackendsUp, err)
	}

	lis, err := net.Listen("tcp", lateAddr)
	if err != nil {
		t.Fatal(err)
	}
	late := &http.Server{Handler: healthy}
	go late.Serve(lis)
	defer late.Close()
	waitFor(t, 5*time.Second, func() bool { return backendUp(r, "1") })

	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("listenAndServe after the signal: %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("listenAndServe did not return after the signal")
	}
	if !r.Stats().Draining {
		t.Error("router not draining after the signal")
	}
}

// TestRouterLogsEvictions: the phprouter process prints the eviction a
// refused proxied request causes, so its log shows each backend's
// eviction before the health loop's readmission of it.
func TestRouterLogsEvictions(t *testing.T) {
	t.Setenv("GOMAXPROCS", strconv.Itoa(runtime.GOMAXPROCS(0))) // SetProcs(1) leaves the test binary's Ps alone
	healthy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	live := httptest.NewServer(healthy)
	defer live.Close()
	gone := httptest.NewServer(healthy)
	goneAddr := strings.TrimPrefix(gone.URL, "http://")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	// The first health tick comes one interval after the start-up probe:
	// long enough that the proxied request, not a probe, finds backend 1
	// gone.
	r := NewRouter(RouterConfig{HealthInterval: 500 * time.Millisecond, DrainGrace: 5 * time.Second})
	r.AddBackend("0", strings.TrimPrefix(live.URL, "http://"))
	r.AddBackend("1", goneAddr)
	out := &lockedBuffer{}
	r.log = out
	sig, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- r.listenAndServe(sig, addr) }()
	waitFor(t, 5*time.Second, func() bool {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil
	})

	gone.Close()
	page := 0
	for owner(r, PageKey(page)) != "1" {
		page++
	}
	resp, err := http.Get("http://" + addr + "/?page=" + strconv.Itoa(page))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Routed-Backend") != "0" {
		t.Fatalf("page %d: status %d from backend %q, want 200 rerouted to 0", page, resp.StatusCode, resp.Header.Get("X-Routed-Backend"))
	}

	back, err := net.Listen("tcp", goneAddr)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: healthy}
	go hs.Serve(back)
	defer hs.Close()
	waitFor(t, 5*time.Second, func() bool { return backendUp(r, "1") })
	stop()
	<-done

	evicted, readmitted := "phprouter: backend 1 unhealthy, evicted from ring (", "phprouter: backend 1 healthy, readmitted to ring\n"
	log := out.String()
	if i, j := strings.Index(log, evicted), strings.Index(log, readmitted); i < 0 || j < i {
		t.Errorf("router log:\n%s\nwant the eviction line, then the readmission line", log)
	}
}

// owner is the backend r's ring routes key to.
func owner(r *Router, key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, _ := r.ring.Owner(key)
	return id
}
