package serve

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
)

// metricsBackend is a stub phpserve exposing just /healthz, /metrics,
// and /profilez with fixed numbers, for scraper tests.
type metricsBackend struct {
	addr     string
	requests float64
	hits     float64
	misses   float64
	// funcs maps function name -> cycles (all category "hash").
	funcs map[string]float64
}

func startMetricsBackend(t *testing.T, b *metricsBackend) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{}`))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		h := obs.NewHistogram([]float64{0.01, 0.1})
		for i := 0.0; i < b.requests; i++ {
			h.Observe(0.005)
		}
		// The tagged types phpserve renders, so the names are the server's.
		obs.NewEncoder(w).Struct("phpserve_", []obs.Label{{Name: "app", Value: "wordpress"}}, struct {
			obs.Snapshot
			Cache cache.Stats
		}{obs.Snapshot{Requests: int64(b.requests), Latency: h.Snapshot()}, cache.Stats{Hits: int64(b.hits), Misses: int64(b.misses)}})
	})
	mux.HandleFunc("/profilez", func(w http.ResponseWriter, _ *http.Request) {
		var rows []profile.Entry
		for name, cyc := range b.funcs {
			rows = append(rows, profile.Entry{Name: name, Category: sim.CatHash, Cycles: cyc})
		}
		// The wire shape phpserve encodes, every function (n=0).
		json.NewEncoder(w).Encode(profile.NewDoc("wordpress", "accelerated", profile.Merge(profile.Profile{Entries: rows}), profile.WindowInfo{}, nil, 0))
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	b.addr = lis.Addr().String()
	return b.addr
}

// TestScrapeFleetMerges: the merged fleet view equals the element-wise
// sum of the backends' expositions, the aggregate hit ratio is computed
// from merged counters, and profiles merge by function.
func TestScrapeFleetMerges(t *testing.T) {
	b0 := &metricsBackend{requests: 10, hits: 6, misses: 4,
		funcs: map[string]float64{"zend_hash_find": 500, "only_b0": 100}}
	b1 := &metricsBackend{requests: 30, hits: 9, misses: 21,
		funcs: map[string]float64{"zend_hash_find": 1500, "only_b1": 400}}
	r := NewRouter(RouterConfig{})
	r.AddBackend("0", startMetricsBackend(t, b0))
	r.AddBackend("1", startMetricsBackend(t, b1))

	fs := r.ScrapeFleet(context.Background())
	if fs.Scraped() != 2 {
		for _, b := range fs.Backends {
			t.Logf("backend %s: err=%v", b.ID, b.Err)
		}
		t.Fatalf("scraped = %d, want 2", fs.Scraped())
	}
	if got := fs.Requests(); got != 40 {
		t.Fatalf("merged requests = %g, want 40", got)
	}
	// Aggregate hit ratio = (6+9)/(6+9+4+21) = 15/40, NOT the mean of
	// per-backend ratios (0.6 and 0.3 would average to 0.45).
	if got, want := fs.CacheHitRatio(), 15.0/40.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("hit ratio = %g, want %g", got, want)
	}
	// Per-backend rows keep the skew visible.
	if got := fs.Backends[0].Requests(); got != 10 {
		t.Fatalf("backend 0 requests = %g, want 10", got)
	}
	if got := fs.Backends[1].Requests(); got != 30 {
		t.Fatalf("backend 1 requests = %g, want 30", got)
	}
	// Merged latency histogram counts all 40 observations.
	if got := fs.Latency().Count; got != 40 {
		t.Fatalf("merged latency count = %d, want 40", got)
	}
	// Profile merged by function: zend_hash_find = 2000 of 2500 total.
	if fs.Profile.Total != 2500 {
		t.Fatalf("profile total = %g, want 2500", fs.Profile.Total)
	}
	if fs.Profile.Entries[0].Name != "zend_hash_find" || fs.Profile.Entries[0].Cycles != 2000 {
		t.Fatalf("hottest = %+v", fs.Profile.Entries[0])
	}
	if got, want := fs.Profile.HottestFrac(), 2000.0/2500.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("hottest frac = %g, want %g", got, want)
	}
	if fs.Profile.NumFunctions() != 3 {
		t.Fatalf("merged functions = %d, want 3", fs.Profile.NumFunctions())
	}
}

// TestScrapeFleetSkipsDownBackends: a down backend is not probed and
// contributes nothing; a failing backend appears with Err set.
func TestScrapeFleetSkipsDownBackends(t *testing.T) {
	b0 := &metricsBackend{requests: 10, funcs: map[string]float64{"f": 1}}
	r := NewRouter(RouterConfig{})
	r.AddBackend("0", startMetricsBackend(t, b0))
	r.AddBackend("1", "127.0.0.1:1") // nothing listens here
	r.SetBackendUp("1", false)

	fs := r.ScrapeFleet(context.Background())
	if len(fs.Backends) != 1 || fs.Backends[0].ID != "0" {
		t.Fatalf("backends scraped = %+v, want only backend 0", fs.Backends)
	}
	if fs.Requests() != 10 {
		t.Fatalf("requests = %g, want 10", fs.Requests())
	}

	// Re-admit the dead backend: the scrape runs, fails, and reports.
	r.SetBackendUp("1", true)
	fs = r.ScrapeFleet(context.Background())
	if len(fs.Backends) != 2 {
		t.Fatalf("backends = %d, want 2", len(fs.Backends))
	}
	if fs.Backends[1].Err == nil {
		t.Fatal("dead backend scrape should report an error")
	}
	if fs.Scraped() != 1 || fs.Requests() != 10 {
		t.Fatalf("scraped=%d requests=%g, want 1/10", fs.Scraped(), fs.Requests())
	}
}

// TestScrapeFleetEmptyRouter: no backends, no panic, empty views.
func TestScrapeFleetEmptyRouter(t *testing.T) {
	r := NewRouter(RouterConfig{})
	fs := r.ScrapeFleet(context.Background())
	if fs.Scraped() != 0 || fs.Requests() != 0 || fs.CacheHitRatio() != 0 {
		t.Fatalf("empty fleet: %+v", fs)
	}
	_ = httptest.NewServer // keep import stable if helpers move
}
