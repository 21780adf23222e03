// Cluster observability plane: the router-side halves of request-ID
// propagation (serve.Router mints and stitches; this file exposes the
// results), the /tracez | /clusterz | /eventz endpoints, and the
// cluster-level gauge block on /metrics built from fleet scrapes.
package main

import (
	"context"
	"net/http"
	"sort"
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

// clusterzBackendRow is one backend's slice of the fleet in /clusterz:
// the skew table that shows how the affinity ring split the load.
type clusterzBackendRow struct {
	ID           string  `json:"id"`
	Addr         string  `json:"addr"`
	Requests     float64 `json:"requests"`
	LoadShare    float64 `json:"load_share"`
	CacheHits    float64 `json:"cache_hits"`
	CacheLookups float64 `json:"cache_lookups"`
	HitRatio     float64 `json:"hit_ratio"`
	Error        string  `json:"error,omitempty"`
}

// clusterzProfile is the fleet-merged flat profile's headline block —
// the paper's Fig. 1 numbers computed over the whole cluster's windowed
// cycles, not any single process.
type clusterzProfile struct {
	TotalCycles float64 `json:"total_cycles"`
	Functions   int     `json:"functions"`
	Hottest     string  `json:"hottest,omitempty"`
	HottestFrac float64 `json:"hottest_frac"`
	FuncsFor65  int     `json:"funcs_for_65"`
}

// clusterzResponse is the GET /clusterz JSON shape.
type clusterzResponse struct {
	Time            string               `json:"time"`
	BackendsUp      int                  `json:"backends_up"`
	BackendsScraped int                  `json:"backends_scraped"`
	Requests        float64              `json:"requests"`
	CacheHitRatio   float64              `json:"cache_hit_ratio"`
	LatencyP50Ms    float64              `json:"latency_p50_ms"`
	LatencyP95Ms    float64              `json:"latency_p95_ms"`
	LatencyP99Ms    float64              `json:"latency_p99_ms"`
	Profile         clusterzProfile      `json:"profile"`
	Backends        []clusterzBackendRow `json:"backends"`
}

// handleClusterz serves the merged fleet view: aggregate hit ratio and
// latency quantiles from bucket-wise merged histograms, the per-backend
// skew table, and the cluster-wide Fig. 1 profile headline.
func (rt *router) handleClusterz(w http.ResponseWriter, r *http.Request) {
	fs := rt.fleet(r.Context())
	lat := fs.Latency()
	resp := clusterzResponse{
		Time:            fs.Time.UTC().Format(time.RFC3339Nano),
		BackendsUp:      rt.r.Stats().UpCount(),
		BackendsScraped: fs.Scraped(),
		Requests:        fs.Requests(),
		CacheHitRatio:   obs.Finite(fs.CacheHitRatio()),
		LatencyP50Ms:    1000 * lat.Quantile(0.5),
		LatencyP95Ms:    1000 * lat.Quantile(0.95),
		LatencyP99Ms:    1000 * lat.Quantile(0.99),
		Profile: clusterzProfile{
			TotalCycles: fs.Profile.Total,
			Functions:   fs.Profile.NumFunctions(),
			HottestFrac: obs.Finite(fs.Profile.HottestFrac()),
			FuncsFor65:  fs.Profile.FuncsForFrac(0.65),
		},
	}
	if fs.Profile.NumFunctions() > 0 {
		resp.Profile.Hottest = fs.Profile.Entries[0].Name
	}
	total := fs.Requests()
	for _, b := range fs.Backends {
		row := clusterzBackendRow{ID: b.ID, Addr: b.Addr}
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
		resp.Backends = append(resp.Backends, row)
	}
	obs.WriteJSON(w, http.StatusOK, resp)
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

// clusterMetrics appends the observability-plane series to the router's
// /metrics exposition: event and stitching counters plus the
// cluster-level gauges computed from a (TTL-coalesced) fleet scrape.
func (rt *router) clusterMetrics(ctx context.Context, e *obs.Encoder, rs serve.RouterStats) {
	e.Counter("phprouter_stitched_trees_total",
		"Backend span trees fetched and grafted under a router proxy span.",
		obs.Sample{Value: float64(rs.Stitched)})
	e.Counter("phprouter_stitch_errors_total",
		"Backend tree fetches that failed (tree evicted, backend gone, decode error).",
		obs.Sample{Value: float64(rs.StitchErrors)})
	if rt.treeRing != nil {
		e.Counter("phprouter_trace_trees_total",
			"Sampled router span trees ever retained in the /tracez ring.",
			obs.Sample{Value: float64(rt.treeRing.Total())})
	}

	counts := rt.events.Counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	evs := make([]obs.Sample, 0, len(kinds))
	for _, k := range kinds {
		evs = append(evs, obs.Sample{
			Labels: []obs.Label{{Name: "kind", Value: k}},
			Value:  float64(counts[k]),
		})
	}
	e.Counter("phprouter_events_total",
		"Cluster events recorded (backend up/down, ring changes, restart phases), by kind.", evs...)

	fs := rt.fleet(ctx)
	e.Gauge("phprouter_cluster_backends_scraped",
		"Backends whose /metrics and /profilez answered the last fleet scrape.",
		obs.Sample{Value: float64(fs.Scraped())})
	e.Gauge("phprouter_cluster_scrape_errors",
		"Healthy backends the last fleet scrape failed to read.",
		obs.Sample{Value: float64(len(fs.Backends) - fs.Scraped())})
	e.Gauge("phprouter_cluster_requests",
		"Fleet-wide served requests (merged backend counters at the last scrape).",
		obs.Sample{Value: fs.Requests()})
	e.Gauge("phprouter_cluster_cache_hit_ratio",
		"Aggregate response-cache hit fraction across the fleet, from merged counters.",
		obs.Sample{Value: obs.Finite(fs.CacheHitRatio())})
	lat := fs.Latency()
	e.Gauge("phprouter_cluster_latency_seconds",
		"Fleet request latency quantiles from the bucket-wise merged histograms.",
		obs.Sample{Labels: []obs.Label{{Name: "quantile", Value: "0.5"}}, Value: lat.Quantile(0.5)},
		obs.Sample{Labels: []obs.Label{{Name: "quantile", Value: "0.95"}}, Value: lat.Quantile(0.95)},
		obs.Sample{Labels: []obs.Label{{Name: "quantile", Value: "0.99"}}, Value: lat.Quantile(0.99)})
	e.Gauge("phprouter_cluster_profile_hottest_frac",
		"Hottest function's share of fleet-merged windowed cycles (cluster Fig. 1 headline).",
		obs.Sample{Value: obs.Finite(fs.Profile.HottestFrac())})
	e.Gauge("phprouter_cluster_profile_funcs_for_65",
		"Hottest functions covering 65% of fleet-merged cycles (cluster Fig. 1 headline).",
		obs.Sample{Value: float64(fs.Profile.FuncsForFrac(0.65))})
	e.Gauge("phprouter_cluster_profile_functions",
		"Distinct functions in the fleet-merged profile window.",
		obs.Sample{Value: float64(fs.Profile.NumFunctions())})
}
