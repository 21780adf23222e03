package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
)

// Fleet aggregation: the router scrapes each healthy backend's /metrics
// and /profilez and merges them into one cluster view — counters
// summed, histograms bucket-wise merged, profiles merged by function —
// which GET /clusterz serves and the router's own /metrics summarizes
// as cluster-level gauges (the whole-fleet version of the paper's
// Fig. 1 headline numbers).

// BackendScrape is one backend's contribution to a fleet scrape.
type BackendScrape struct {
	// ID and Addr identify the backend.
	ID   string
	Addr string
	// Err is the scrape failure, nil on success. A failed backend
	// contributes nothing to the merged views.
	Err error
	// Families is the backend's parsed /metrics exposition.
	Families []*obs.MetricFamily
	// Profile is the backend's windowed flat profile from
	// /profilez?format=json.
	Profile profile.Profile
}

// Requests returns the backend's served-request count from its metrics.
func (b BackendScrape) Requests() float64 {
	return obs.FindFamily(b.Families, "phpserve_requests_total").Sum()
}

// CacheHits and CacheLookups read the backend's response-cache counters
// (both 0 when the backend runs cache-less).
func (b BackendScrape) CacheHits() float64 {
	return obs.FindFamily(b.Families, "phpserve_cache_hits_total").Sum()
}

// CacheLookups returns hits + misses + coalesced waits.
func (b BackendScrape) CacheLookups() float64 {
	return b.CacheHits() +
		obs.FindFamily(b.Families, "phpserve_cache_misses_total").Sum() +
		obs.FindFamily(b.Families, "phpserve_cache_coalesced_total").Sum()
}

// FleetScrape is one pass over every healthy backend plus the merged
// cluster views.
type FleetScrape struct {
	// Time is when the scrape ran.
	Time time.Time
	// Backends holds per-backend results in registration order, healthy
	// backends only (down backends are not probed).
	Backends []BackendScrape
	// Merged is the fleet-wide exposition: every successful backend's
	// families folded together (counters summed, histogram buckets
	// merged).
	Merged []*obs.MetricFamily
	// Profile is the cluster-wide flat profile, merged by (function,
	// category) with recomputed shares.
	Profile profile.Profile
}

// Scraped returns how many backends answered both endpoints.
func (f FleetScrape) Scraped() int {
	n := 0
	for _, b := range f.Backends {
		if b.Err == nil {
			n++
		}
	}
	return n
}

// CacheHitRatio returns the aggregate response-cache hit ratio across
// the fleet (0 when no lookups), computed from merged counters — the
// correct way; averaging per-backend ratios would weight idle backends
// equally with loaded ones.
func (f FleetScrape) CacheHitRatio() float64 {
	hits := obs.FindFamily(f.Merged, "phpserve_cache_hits_total").Sum()
	lookups := hits +
		obs.FindFamily(f.Merged, "phpserve_cache_misses_total").Sum() +
		obs.FindFamily(f.Merged, "phpserve_cache_coalesced_total").Sum()
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}

// Requests returns the fleet-wide served-request total.
func (f FleetScrape) Requests() float64 {
	return obs.FindFamily(f.Merged, "phpserve_requests_total").Sum()
}

// Latency returns the merged fleet latency distribution.
func (f FleetScrape) Latency() obs.HistogramSnapshot {
	return obs.FindFamily(f.Merged, "phpserve_request_latency_seconds").Histogram()
}

// ScrapeFleet pulls /metrics and /profilez?format=json from every
// backend the router currently considers up, concurrently, and merges
// the successes. Down backends are skipped entirely (their last-known
// numbers would double-count restarts); failed scrapes appear in
// Backends with Err set.
func (r *Router) ScrapeFleet(ctx context.Context) FleetScrape {
	r.mu.Lock()
	type target struct{ id, addr string }
	var targets []target
	for _, id := range r.order {
		if b := r.backends[id]; b.up {
			targets = append(targets, target{id, b.addr})
		}
	}
	r.mu.Unlock()

	out := FleetScrape{Time: time.Now(), Backends: make([]BackendScrape, len(targets))}
	var wg sync.WaitGroup
	for i, tg := range targets {
		wg.Add(1)
		go func(i int, tg target) {
			defer wg.Done()
			out.Backends[i] = r.scrapeBackend(ctx, tg.id, tg.addr)
		}(i, tg)
	}
	wg.Wait()

	var profiles []profile.Profile
	for _, b := range out.Backends {
		if b.Err != nil {
			continue
		}
		out.Merged = obs.MergeFamilies(out.Merged, b.Families)
		profiles = append(profiles, b.Profile)
	}
	out.Profile = profile.Merge(profiles...)
	return out
}

// scrapeBackend pulls one backend's /metrics and /profilez.
func (r *Router) scrapeBackend(ctx context.Context, id, addr string) BackendScrape {
	b := BackendScrape{ID: id, Addr: addr}
	body, err := r.fetchBody(ctx, "http://"+addr+"/metrics")
	if err != nil {
		b.Err = err
		return b
	}
	b.Families, err = obs.ParsePromText(body)
	body.Close()
	if err != nil {
		b.Err = err
		return b
	}
	pb, err := r.fetchBody(ctx, "http://"+addr+"/profilez?format=json&n=0")
	if err != nil {
		b.Err = err
		return b
	}
	var doc profile.Doc
	err = json.NewDecoder(io.LimitReader(pb, 8<<20)).Decode(&doc)
	pb.Close()
	if err != nil {
		b.Err = fmt.Errorf("serve: profilez decode: %w", err)
		return b
	}
	b.Profile = doc.Profile() // requested with n=0: every function
	return b
}

// fetchBody issues one GET and returns the response body reader, or an
// error for any non-200 answer.
func (r *Router) fetchBody(ctx context.Context, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		return nil, fmt.Errorf("serve: scrape %s: %s", url, resp.Status)
	}
	return resp.Body, nil
}
