// Cluster observability plane: the router-side halves of request-ID
// propagation (serve.Router mints and stitches; this file exposes the
// results), the /tracez | /clusterz | /eventz endpoints, and the
// cluster view whose tagged fields are the phprouter_cluster_* gauges.
package main

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// fleetScrapeTTL coalesces fleet scrapes: /metrics and /clusterz hits
// within the window share one result instead of re-polling every
// backend (a Prometheus scrape of the router must not multiply into a
// scrape storm against the fleet).
const fleetScrapeTTL = time.Second

// fleet returns a fleet scrape no older than fleetScrapeTTL, running a
// fresh one (bounded by -scrapetimeout per pass) when the cache is
// stale.
func (rt *router) fleet(ctx context.Context) serve.FleetScrape {
	rt.scrapeMu.Lock()
	defer rt.scrapeMu.Unlock()
	if rt.lastScrape != nil && time.Since(rt.lastScrape.Time) < fleetScrapeTTL {
		return *rt.lastScrape
	}
	sctx, cancel := context.WithTimeout(ctx, rt.scrapeTO)
	defer cancel()
	fs := rt.r.ScrapeFleet(sctx)
	rt.lastScrape = &fs
	return fs
}

// handleTracez serves the router's sampled span trees — with stitched
// backend subtrees where the backend sampled the same request — in the
// same formats and with the same parameters as phpserve's /tracez
// (n, rid, format=json|folded|text|tree).
func (rt *router) handleTracez(w http.ResponseWriter, r *http.Request) {
	if rt.treeRing == nil {
		http.Error(w, "tracez: span-tree retention disabled (-treering 0)", http.StatusNotFound)
		return
	}
	obs.ServeTracez(w, r, rt.treeRing)
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

// clusterStats is the merged fleet view, declared once: GET /clusterz
// is its JSON and the phprouter_cluster_* gauges are the tagged fields.
// Latency comes from the bucket-wise merged histograms, in milliseconds
// on /clusterz and in seconds per quantile on /metrics.
type clusterStats struct {
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
func (rt *router) cluster(ctx context.Context, rs serve.RouterStats) clusterStats {
	fs := rt.fleet(ctx)
	lat := fs.Latency()
	p50, p95, p99 := lat.Quantile(0.5), lat.Quantile(0.95), lat.Quantile(0.99)
	total := fs.Requests()
	cs := clusterStats{
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
		Profile: clusterProfile{
			TotalCycles: fs.Profile.Total,
			Functions:   fs.Profile.NumFunctions(),
			HottestFrac: obs.Finite(fs.Profile.HottestFrac()),
			FuncsFor65:  fs.Profile.FuncsForFrac(0.65),
		},
	}
	if fs.Profile.NumFunctions() > 0 {
		cs.Profile.Hottest = fs.Profile.Entries[0].Name
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
		cs.Backends = append(cs.Backends, row)
	}
	return cs
}

// handleClusterz serves the merged fleet view.
func (rt *router) handleClusterz(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, rt.cluster(r.Context(), rt.r.Stats()))
}

// eventzResponse is the GET /eventz JSON shape: the bounded cluster
// event timeline (backend up/down, ring ownership changes, rolling
// restart phases), oldest first.
type eventzResponse struct {
	Total  int64            `json:"total"`
	Counts map[string]int64 `json:"counts"`
	Events []obs.Event      `json:"events"`
}

// handleEventz serves the retained cluster events. Parameter n bounds
// the tail, read like /tracez's and /profilez's n (default, and any
// malformed value: all retained).
func (rt *router) handleEventz(w http.ResponseWriter, r *http.Request) {
	resp := eventzResponse{
		Total:  rt.events.Total(),
		Counts: rt.events.Counts(),
		Events: rt.events.Last(obs.QueryInt(r, "n", 0)),
	}
	if resp.Events == nil {
		resp.Events = []obs.Event{}
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}
