package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workload"
)

// startClusterBackend builds a real phpserve server (pool + scheduler +
// cache + collector, sampling every request) and serves it over HTTP —
// the full production handler, not a stub.
func startClusterBackend(t *testing.T, backendID int, logW io.Writer) *httptest.Server {
	t.Helper()
	cfg, err := vm.ConfigByName("accelerated")
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceCapacity = -1
	pool, err := workload.NewPoolSharedSeed(1, cfg, "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(1, logW, nil)
	col.SetTreeRing(obs.NewTreeRing(64))
	sched := serve.NewScheduler(pool, serve.Config{QueueDepth: 16})
	srv := newServer(sched, col, "wordpress", "accelerated")
	srv.backendID = backendID
	col.SetBackend(srv.backendLabel())
	srv.cache = cache.New(cache.Config{Capacity: 64, Shards: 4})
	srv.pageKeys, err = workload.NewZipfKeys(1, 1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts
}

// backendStatsRatio reads one backend's /stats cache block and returns
// (hits, lookups).
func backendStatsRatio(t *testing.T, addr string) (float64, float64) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Cache *struct {
			Hits      float64 `json:"hits"`
			Misses    float64 `json:"misses"`
			Coalesced float64 `json:"coalesced"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("backend /stats has no cache block")
	}
	return st.Cache.Hits, st.Cache.Hits + st.Cache.Misses + st.Cache.Coalesced
}

// logHasRequestID scans a JSON-lines access log for a line carrying the
// given request_id.
func logHasRequestID(t *testing.T, buf *bytes.Buffer, rid string) bool {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var line struct {
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad access-log line %q: %v", sc.Text(), err)
		}
		if line.RequestID == rid {
			return true
		}
	}
	return false
}

// TestClusterEndToEndObservability is the acceptance-criteria run in
// miniature: two real phpserve backends behind a real affinity router,
// every request sampled. One X-Request-Id must be visible in the client
// response, the router access log, the serving backend's access log,
// and the stitched tree in the router's /tracez ring; the fleet
// scrape's aggregate hit ratio must equal the ratio recomputed from the
// backends' own /stats counters.
func TestClusterEndToEndObservability(t *testing.T) {
	var b0Log, b1Log, routerLog bytes.Buffer
	ts0 := startClusterBackend(t, 0, &b0Log)
	ts1 := startClusterBackend(t, 1, &b1Log)

	routerRing := obs.NewTreeRing(64)
	r := serve.NewRouter(serve.RouterConfig{
		Client:     &http.Client{Timeout: 10 * time.Second},
		SampleRate: 1,
		TreeRing:   routerRing,
		AccessLog:  obs.NewAccessLog(&routerLog),
		Events:     obs.NewEventRing(64),
	})
	r.AddBackend("0", strings.TrimPrefix(ts0.URL, "http://"))
	r.AddBackend("1", strings.TrimPrefix(ts1.URL, "http://"))

	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		page, err := serve.ParsePage(req.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Proxy(w, req, serve.PageKey(page))
	}))
	defer front.Close()

	// Two rounds over 8 pages: round one fills both backends' caches,
	// round two hits them, so the aggregate ratio is meaningfully mixed.
	const rounds, pages = 2, 8
	var lastRID string
	for round := 0; round < rounds; round++ {
		for page := 0; page < pages; page++ {
			resp, err := http.Get(fmt.Sprintf("%s/?page=%d", front.URL, page))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("page %d round %d: status %d", page, round, resp.StatusCode)
			}
			rid := resp.Header.Get("X-Request-Id")
			if rid == "" {
				t.Fatal("response missing X-Request-Id")
			}
			if resp.Header.Get("X-Trace-Sampled") != "" {
				t.Fatal("internal X-Trace-Sampled header leaked to the client")
			}
			lastRID = rid
		}
	}

	// Stitching happens after the client is answered; wait for every
	// sampled request's backend tree to be fetched and grafted.
	const total = rounds * pages
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs := r.Stats()
		if rs.Stitched+rs.StitchErrors >= total {
			if rs.StitchErrors != 0 {
				t.Fatalf("stitch errors: %d of %d", rs.StitchErrors, total)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stitched %d + errors %d, want %d", rs.Stitched, rs.StitchErrors, total)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The last request's ID names a stitched tree in the router ring:
	// its proxy span carries the backend's grafted subtree.
	var tree *obs.Tree
	for _, tr := range routerRing.Last(0) {
		if tr != nil && tr.ID == lastRID {
			tree = tr
		}
	}
	if tree == nil {
		t.Fatalf("no router tree with id %s", lastRID)
	}
	stitched := false
	tree.Root.Walk(func(sp *obs.TreeSpan, _ int) {
		if strings.HasPrefix(sp.Name, "proxy:") || strings.HasPrefix(sp.Name, "retry:") {
			if len(sp.Children) > 0 {
				stitched = true
			}
		}
	})
	if !stitched {
		t.Fatalf("router tree %s has no backend subtree under its proxy span", lastRID)
	}

	// The same ID appears in the router's access log and in exactly one
	// backend's.
	if !logHasRequestID(t, &routerLog, lastRID) {
		t.Fatalf("router access log has no line for %s", lastRID)
	}
	if !logHasRequestID(t, &b0Log, lastRID) && !logHasRequestID(t, &b1Log, lastRID) {
		t.Fatalf("no backend access log line for %s", lastRID)
	}

	// Fleet-scrape aggregate hit ratio == ratio recomputed from the
	// backends' own /stats counters (merged counters, not mean of
	// ratios).
	fs := r.ScrapeFleet(context.Background())
	if fs.Scraped() != 2 {
		for _, b := range fs.Backends {
			t.Logf("backend %s: err=%v", b.ID, b.Err)
		}
		t.Fatalf("scraped %d backends, want 2", fs.Scraped())
	}
	if got := fs.Requests(); got != total {
		t.Fatalf("fleet requests = %g, want %d", got, total)
	}
	h0, l0 := backendStatsRatio(t, strings.TrimPrefix(ts0.URL, "http://"))
	h1, l1 := backendStatsRatio(t, strings.TrimPrefix(ts1.URL, "http://"))
	if l0+l1 == 0 {
		t.Fatal("no cache lookups recorded")
	}
	want := (h0 + h1) / (l0 + l1)
	if got := fs.CacheHitRatio(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("fleet hit ratio = %g, want %g from per-backend /stats", got, want)
	}
	if want == 0 {
		t.Fatal("expected cache hits after the second round")
	}
}
