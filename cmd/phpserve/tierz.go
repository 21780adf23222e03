package main

// The /tierz endpoint and phpserve_tier_* metric series: the serving
// view of the bytecode execution tier for scripted workloads. The
// snapshot is merged across every pool worker (each worker's persistent
// interpreter carries its own inline caches and promotion state, like a
// PHP-FPM process's JIT), so counters here are fleet totals and a
// function promoted on any worker shows as promoted.

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/obs"
	"repro/internal/php"
)

// tierzResponse is the ?format=json shape of /tierz.
type tierzResponse struct {
	App               string    `json:"app"`
	Config            string    `json:"config"`
	Tier              string    `json:"tier"`
	Enabled           bool      `json:"enabled"`
	Requests          int64     `json:"requests"`
	Promotions        int64     `json:"promotions"`
	Demotions         int64     `json:"demotions"`
	BytecodeCalls     int64     `json:"bytecode_calls"`
	InterpCalls       int64     `json:"interp_calls"`
	ICSites           int       `json:"ic_sites"`
	ICHits            int64     `json:"ic_hits"`
	ICMisses          int64     `json:"ic_misses"`
	MegamorphicSites  int64     `json:"megamorphic_sites"`
	TypeStableHits    int64     `json:"type_stable_hits"`
	TypeMisses        int64     `json:"type_misses"`
	PromotedFunctions int       `json:"promoted_functions"`
	Functions         []tierzFn `json:"functions"`
}

type tierzFn struct {
	Name       string `json:"name"`
	Tier       string `json:"tier"`
	Calls      int64  `json:"calls"`
	Promotions int64  `json:"promotions"`
	Demotions  int64  `json:"demotions"`
}

// tierSnapshot gathers the merged tier state, or a zero snapshot when
// the tier plane is off (avoids the pool quiescence barrier entirely).
func (s *server) tierSnapshot() php.TierSnapshot {
	if s.tier == "" {
		return php.TierSnapshot{}
	}
	return s.pool.TierSnapshot()
}

// sortedFns orders per-function rows hottest-first for stable display.
func sortedFns(snap php.TierSnapshot) []php.TierFnStat {
	fns := append([]php.TierFnStat(nil), snap.Fns...)
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].Calls != fns[j].Calls {
			return fns[i].Calls > fns[j].Calls
		}
		return fns[i].Name < fns[j].Name
	})
	return fns
}

func (s *server) handleTierz(w http.ResponseWriter, r *http.Request) {
	snap := s.tierSnapshot()

	switch format := r.URL.Query().Get("format"); format {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !snap.Enabled {
			fmt.Fprintf(w, "tiering off: %s (%s) — start with -tier interp|auto|bytecode on a scripted workload\n", s.app, s.config)
			return
		}
		fmt.Fprintf(w, "script tier: %s (%s), mode %s\n", s.app, s.config, snap.Mode)
		fmt.Fprintf(w, "requests %d   bytecode calls %d   interp calls %d\n",
			snap.Requests, snap.BytecodeCalls, snap.InterpCalls)
		fmt.Fprintf(w, "promotions %d   demotions %d   promoted functions %d\n",
			snap.Promotions, snap.Demotions, snap.PromotedFunctions)
		fmt.Fprintf(w, "inline caches: %d sites   hits %d   misses %d   megamorphic %d\n",
			snap.ICSites, snap.ICHits, snap.ICMisses, snap.MegamorphicSites)
		fmt.Fprintf(w, "type feedback: stable %d   misses %d\n\n", snap.TypeStableHits, snap.TypeMisses)
		fmt.Fprintf(w, "%-24s %-10s %12s %6s %6s\n", "function", "tier", "calls", "promo", "demo")
		for _, f := range sortedFns(snap) {
			fmt.Fprintf(w, "%-24s %-10s %12d %6d %6d\n", f.Name, f.Tier, f.Calls, f.Promotions, f.Demotions)
		}
	case "json":
		resp := tierzResponse{
			App:               s.app,
			Config:            s.config,
			Tier:              s.tier,
			Enabled:           snap.Enabled,
			Requests:          snap.Requests,
			Promotions:        snap.Promotions,
			Demotions:         snap.Demotions,
			BytecodeCalls:     snap.BytecodeCalls,
			InterpCalls:       snap.InterpCalls,
			ICSites:           snap.ICSites,
			ICHits:            snap.ICHits,
			ICMisses:          snap.ICMisses,
			MegamorphicSites:  snap.MegamorphicSites,
			TypeStableHits:    snap.TypeStableHits,
			TypeMisses:        snap.TypeMisses,
			PromotedFunctions: snap.PromotedFunctions,
			Functions:         make([]tierzFn, 0, len(snap.Fns)),
		}
		if snap.Enabled {
			resp.Tier = snap.Mode
		}
		for _, f := range sortedFns(snap) {
			resp.Functions = append(resp.Functions, tierzFn{
				Name: f.Name, Tier: f.Tier, Calls: f.Calls,
				Promotions: f.Promotions, Demotions: f.Demotions,
			})
		}
		obs.WriteJSON(w, http.StatusOK, resp)
	default:
		http.Error(w, "unknown format "+format+" (want table or json)", http.StatusBadRequest)
	}
}

// tierMetrics appends the phpserve_tier_* series to a /metrics scrape.
// Emitted only when the tier plane is configured, so untiered servers
// pay no extra pool drain per scrape and expose no dead series.
func (s *server) tierMetrics(e *obs.Encoder, base []obs.Label) {
	if s.tier == "" {
		return
	}
	snap := s.tierSnapshot()
	labels := append(append([]obs.Label(nil), base...), obs.Label{Name: "tier", Value: snap.Mode})
	e.Counter("phpserve_tier_requests_total",
		"Requests seen by the tier controller across all workers.",
		obs.Sample{Labels: labels, Value: float64(snap.Requests)})
	e.Counter("phpserve_tier_promotions_total",
		"Function promotions to the bytecode tier across all workers.",
		obs.Sample{Labels: labels, Value: float64(snap.Promotions)})
	e.Counter("phpserve_tier_demotions_total",
		"Function demotions back to the tree-walking interpreter.",
		obs.Sample{Labels: labels, Value: float64(snap.Demotions)})
	e.Counter("phpserve_tier_bytecode_calls_total",
		"Function calls executed in the bytecode tier.",
		obs.Sample{Labels: labels, Value: float64(snap.BytecodeCalls)})
	e.Counter("phpserve_tier_interp_calls_total",
		"Function calls executed by the tree-walking interpreter.",
		obs.Sample{Labels: labels, Value: float64(snap.InterpCalls)})
	e.Gauge("phpserve_tier_ic_sites",
		"Polymorphic inline-cache sites materialized in compiled code.",
		obs.Sample{Labels: labels, Value: float64(snap.ICSites)})
	e.Counter("phpserve_tier_ic_hits_total",
		"Inline-cache hits at static hash-access sites.",
		obs.Sample{Labels: labels, Value: float64(snap.ICHits)})
	e.Counter("phpserve_tier_ic_misses_total",
		"Inline-cache misses (lookup fell back to the full path).",
		obs.Sample{Labels: labels, Value: float64(snap.ICMisses)})
	e.Gauge("phpserve_tier_megamorphic_sites",
		"Inline-cache sites gone megamorphic (cap exceeded, caching off).",
		obs.Sample{Labels: labels, Value: float64(snap.MegamorphicSites)})
	e.Counter("phpserve_tier_type_stable_hits_total",
		"Type-check sites whose observed type matched the cached one.",
		obs.Sample{Labels: labels, Value: float64(snap.TypeStableHits)})
	e.Counter("phpserve_tier_type_misses_total",
		"Type-check sites observing a new type (feedback updated).",
		obs.Sample{Labels: labels, Value: float64(snap.TypeMisses)})
	e.Gauge("phpserve_tier_promoted_functions",
		"Functions currently resident in the bytecode tier (any worker).",
		obs.Sample{Labels: labels, Value: float64(snap.PromotedFunctions)})
}
