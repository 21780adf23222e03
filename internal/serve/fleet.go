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

// fetchBody issues one GET to a backend — health probe, fleet scrape or
// trace-stitch fetch — and returns the response body reader, or an
// error for any non-2xx answer.
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

// fleetScrapeTTL coalesces fleet scrapes: /metrics and /clusterz hits
// within the window share one result instead of re-polling every
// backend (a Prometheus scrape of the router must not multiply into a
// scrape storm against the fleet).
const fleetScrapeTTL = time.Second

// fleet returns a fleet scrape no older than fleetScrapeTTL, running a
// fresh one (bounded by ScrapeTimeout per pass) when the cache is
// stale.
func (r *Router) fleet(ctx context.Context) FleetScrape {
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	if r.lastScrape != nil && time.Since(r.lastScrape.Time) < fleetScrapeTTL {
		return *r.lastScrape
	}
	sctx, cancel := context.WithTimeout(ctx, r.cfg.ScrapeTimeout)
	defer cancel()
	fs := r.ScrapeFleet(sctx)
	r.lastScrape = &fs
	return fs
}

// clusterBackend is one backend's slice of the fleet in /clusterz: the
// skew table that shows how the affinity ring split the load.
type clusterBackend struct {
	ID           string  `json:"id"`
	Addr         string  `json:"addr"`
	Requests     float64 `json:"requests"`
	LoadShare    float64 `json:"load_share"`
	CacheHits    float64 `json:"cache_hits"`
	CacheLookups float64 `json:"cache_lookups"`
	HitRatio     float64 `json:"hit_ratio"`
	Error        string  `json:"error,omitempty"`
}

// clusterProfile is the fleet-merged flat profile's headline block —
// the paper's Fig. 1 numbers computed over the whole cluster's windowed
// cycles, not any single process.
type clusterProfile struct {
	TotalCycles float64 `json:"total_cycles"`
	Functions   int     `json:"functions" prom:"cluster_profile_functions,gauge" help:"Distinct functions in the fleet-merged profile window."`
	Hottest     string  `json:"hottest,omitempty"`
	HottestFrac float64 `json:"hottest_frac" prom:"cluster_profile_hottest_frac,gauge" help:"Hottest function's share of fleet-merged windowed cycles (cluster Fig. 1 headline)."`
	FuncsFor65  int     `json:"funcs_for_65" prom:"cluster_profile_funcs_for_65,gauge" help:"Hottest functions covering 65% of fleet-merged cycles (cluster Fig. 1 headline)."`
}

// ClusterView is the merged fleet view, declared once: GET /clusterz is
// its JSON and the phprouter_cluster_* gauges are the tagged fields.
// Latency comes from the bucket-wise merged histograms, in milliseconds
// on /clusterz and in seconds per quantile on /metrics.
type ClusterView struct {
	Time            string           `json:"time"`
	BackendsUp      int              `json:"backends_up"`
	BackendsScraped int              `json:"backends_scraped" prom:"cluster_backends_scraped,gauge" help:"Backends whose /metrics and /profilez answered the last fleet scrape."`
	ScrapeErrors    int              `json:"-" prom:"cluster_scrape_errors,gauge" help:"Healthy backends the last fleet scrape failed to read."`
	Requests        float64          `json:"requests" prom:"cluster_requests,gauge" help:"Fleet-wide served requests (merged backend counters at the last scrape)."`
	CacheHitRatio   float64          `json:"cache_hit_ratio" prom:"cluster_cache_hit_ratio,gauge" help:"Aggregate response-cache hit fraction across the fleet, from merged counters."`
	LatencyP50Ms    float64          `json:"latency_p50_ms"`
	LatencyP95Ms    float64          `json:"latency_p95_ms"`
	LatencyP99Ms    float64          `json:"latency_p99_ms"`
	Latency         obs.Vec          `json:"-" prom:"cluster_latency_seconds,gauge,by=quantile" help:"Fleet request latency quantiles from the bucket-wise merged histograms."`
	Profile         clusterProfile   `json:"profile"`
	Backends        []clusterBackend `json:"backends"`
}

// cluster builds the merged fleet view from a (TTL-coalesced) fleet
// scrape: aggregate hit ratio and latency quantiles, the per-backend
// skew table, and the cluster-wide Fig. 1 profile headline.
func (r *Router) cluster(ctx context.Context, rs RouterStats) ClusterView {
	fs := r.fleet(ctx)
	lat := fs.Latency()
	p50, p95, p99 := lat.Quantile(0.5), lat.Quantile(0.95), lat.Quantile(0.99)
	total := fs.Requests()
	h := fs.Profile.Headline()
	cv := ClusterView{
		Time:            fs.Time.UTC().Format(time.RFC3339Nano),
		BackendsUp:      rs.UpCount(),
		BackendsScraped: fs.Scraped(),
		ScrapeErrors:    len(fs.Backends) - fs.Scraped(),
		Requests:        total,
		CacheHitRatio:   obs.Finite(fs.CacheHitRatio()),
		LatencyP50Ms:    1000 * p50,
		LatencyP95Ms:    1000 * p95,
		LatencyP99Ms:    1000 * p99,
		Latency:         obs.Vec{{Name: "0.5", Value: p50}, {Name: "0.95", Value: p95}, {Name: "0.99", Value: p99}},
		Profile:         clusterProfile{TotalCycles: h.Total, Functions: h.Functions, Hottest: h.Hottest, HottestFrac: h.HottestFrac, FuncsFor65: h.FuncsFor65},
	}
	for _, b := range fs.Backends {
		row := clusterBackend{ID: b.ID, Addr: b.Addr}
		if b.Err != nil {
			row.Error = b.Err.Error()
		} else {
			row.Requests = b.Requests()
			row.CacheHits = b.CacheHits()
			row.CacheLookups = b.CacheLookups()
			if row.CacheLookups > 0 {
				row.HitRatio = row.CacheHits / row.CacheLookups
			}
			if total > 0 {
				row.LoadShare = row.Requests / total
			}
		}
		cv.Backends = append(cv.Backends, row)
	}
	return cv
}
