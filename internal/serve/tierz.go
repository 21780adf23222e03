package serve

// The /tierz endpoint and phpserve_tier_* metric series: the serving
// view of a scripted workload's execution engine. The snapshot is merged
// across every pool worker (each worker's persistent interpreter carries
// its own inline caches and type feedback, like a PHP-FPM process's
// JIT), so counters here are fleet totals.

import (
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/php"
)

// handleTierz serves the merged engine state as a table or, with
// format=json, as the tagged php.TierSnapshot itself behind the server's
// identity. With the tier plane off it answers from a zero snapshot,
// skipping the pool quiescence barrier.
func (s *Server) handleTierz(w http.ResponseWriter, r *http.Request) {
	var snap php.TierSnapshot
	if s.cfg.Tier != "" {
		snap = s.Pool.TierSnapshot()
	}
	app, config := s.cfg.App, s.cfg.Core

	switch format := r.URL.Query().Get("format"); format {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !snap.Enabled {
			fmt.Fprintf(w, "tiering off: %s (%s) — start with -tier interp|bytecode on a scripted workload\n", app, config)
			return
		}
		fmt.Fprintf(w, "script tier: %s (%s), mode %s\n", app, config, snap.Mode)
		fmt.Fprintf(w, "requests %d\n", snap.Requests)
		fmt.Fprintf(w, "inline caches: %d sites   hits %d   misses %d   megamorphic %d\n",
			snap.ICSites, snap.ICHits, snap.ICMisses, snap.MegamorphicSites)
		fmt.Fprintf(w, "type feedback: stable %d   misses %d\n", snap.TypeStableHits, snap.TypeMisses)
	case "json":
		obs.WriteJSON(w, http.StatusOK, struct {
			App    string `json:"app"`
			Config string `json:"config"`
			php.TierSnapshot
		}{app, config, snap})
	default:
		http.Error(w, "unknown format "+format+" (want table or json)", http.StatusBadRequest)
	}
}
