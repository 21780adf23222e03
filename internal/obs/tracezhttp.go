package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Shared /tracez endpoint. Both phpserve and phprouter expose their
// span-tree rings through this handler, so the formats and parameters
// stay identical on both sides of the proxy boundary — which is what
// lets the router fetch a backend's tree for stitching with the same
// endpoint an operator curls.

// ServeTracez renders the ring's retained span trees for a GET /tracez
// request. Parameters:
//
//	n       last K trees (default 16, <= 0 for all retained)
//	rid     only trees whose correlation ID equals rid (searches the
//	        whole ring, ignoring n — an ID names one request)
//	format  json (Chrome trace_event, default) | folded (flamegraph
//	        stacks) | text (indented listing) | tree (raw []*Tree JSON,
//	        the cross-process stitching interchange form)
func ServeTracez(w http.ResponseWriter, r *http.Request, ring *TreeRing) {
	trees := ring.Last(QueryInt(r, "n", 16))
	if rid := r.URL.Query().Get("rid"); rid != "" {
		matched := make([]*Tree, 0, 1)
		for _, t := range ring.Last(0) {
			if t != nil && t.ID == rid {
				matched = append(matched, t)
			}
		}
		trees = matched
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		WriteTraceEvents(w, trees)
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteFolded(w, trees)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteTreeText(w, trees)
	case "tree":
		w.Header().Set("Content-Type", "application/json")
		WriteTreesJSON(w, trees)
	default:
		http.Error(w, fmt.Sprintf("tracez: unknown format %q (want json, folded, text, or tree)", format), http.StatusBadRequest)
	}
}

// WriteJSON answers an operator endpoint with v as indented JSON under
// the given status — the one encoding of every JSON endpoint phpserve
// and phprouter expose.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteTreeText renders trees as indented span listings for quick
// terminal inspection (curl /tracez?format=text).
func WriteTreeText(w io.Writer, trees []*Tree) {
	for _, t := range trees {
		if t == nil || t.Root == nil {
			continue
		}
		fmt.Fprintf(w, "request %d  worker %d  start %s  spans %d",
			t.Request, t.Worker, t.Start.UTC().Format(time.RFC3339Nano), t.Root.NumSpans())
		if t.ID != "" {
			fmt.Fprintf(w, "  id %s", t.ID)
		}
		if t.Dropped > 0 {
			fmt.Fprintf(w, "  dropped %d", t.Dropped)
		}
		fmt.Fprintln(w)
		t.Root.Walk(func(sp *TreeSpan, depth int) {
			fmt.Fprintf(w, "%s%-24s %10s  %12.0f cycles  (self %.0f)\n",
				strings.Repeat("  ", depth+1), sp.Name, sp.Dur.Round(time.Microsecond),
				sp.Cycles, sp.SelfCycles())
		})
	}
}

// QueryInt parses an integer query parameter of an operator endpoint
// (?n=), falling back to def when absent or malformed.
func QueryInt(r *http.Request, name string, def int) int {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}
