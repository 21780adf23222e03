package serve

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

// handleTierz serves the merged tier state as a table or, with
// format=json, as the tagged php.TierSnapshot itself behind the server's
// identity; the per-function rows come hottest-first either way. With
// the tier plane off it answers from a zero snapshot, skipping the pool
// quiescence barrier.
func (s *Server) handleTierz(w http.ResponseWriter, r *http.Request) {
	var snap php.TierSnapshot
	if s.cfg.Tier != "" {
		snap = s.Pool.TierSnapshot()
	}
	snap.Fns = append([]php.TierFnStat{}, snap.Fns...) // "functions": [] when there are none
	sort.Slice(snap.Fns, func(i, j int) bool {
		if snap.Fns[i].Calls != snap.Fns[j].Calls {
			return snap.Fns[i].Calls > snap.Fns[j].Calls
		}
		return snap.Fns[i].Name < snap.Fns[j].Name
	})
	app, config := s.cfg.App, s.cfg.Core

	switch format := r.URL.Query().Get("format"); format {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !snap.Enabled {
			fmt.Fprintf(w, "tiering off: %s (%s) — start with -tier interp|auto|bytecode on a scripted workload\n", app, config)
			return
		}
		fmt.Fprintf(w, "script tier: %s (%s), mode %s\n", app, config, snap.Mode)
		fmt.Fprintf(w, "requests %d   bytecode calls %d   interp calls %d\n",
			snap.Requests, snap.BytecodeCalls, snap.InterpCalls)
		fmt.Fprintf(w, "promotions %d   demotions %d   promoted functions %d\n",
			snap.Promotions, snap.Demotions, snap.PromotedFunctions)
		fmt.Fprintf(w, "inline caches: %d sites   hits %d   misses %d   megamorphic %d\n",
			snap.ICSites, snap.ICHits, snap.ICMisses, snap.MegamorphicSites)
		fmt.Fprintf(w, "type feedback: stable %d   misses %d\n\n", snap.TypeStableHits, snap.TypeMisses)
		fmt.Fprintf(w, "%-24s %-10s %12s %6s %6s\n", "function", "tier", "calls", "promo", "demo")
		for _, f := range snap.Fns {
			fmt.Fprintf(w, "%-24s %-10s %12d %6d %6d\n", f.Name, f.Tier, f.Calls, f.Promotions, f.Demotions)
		}
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
