package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
)

// Router-side request observability: every proxied request gets an
// X-Request-Id (inbound one sanitized and kept, otherwise minted) that
// is forwarded to the backend and echoed to the client, so one ID ties
// the router's access-log line, the backend's line, and both processes'
// span trees together. A sampled fraction of requests additionally
// record a router span tree — route / proxy / retry phases with wall
// durations — and, when the backend sampled the same request (signalled
// via the X-Trace-Sampled response header), the router fetches the
// backend's tree by ID and grafts it under its own proxy span, so
// /tracez shows socket → router → backend → VM as one timeline.

// proxyObs threads one proxied request's observability state through
// Proxy and its attempts. It is always non-nil (ID propagation is
// unconditional); sampled and the router config decide how much else is
// recorded. Owned by the request goroutine — no locking.
type proxyObs struct {
	rid     string
	start   time.Time
	sampled bool // logged, and traced when there is a tree ring
	traced  bool // sampled with a tree ring: record spans, build the tree

	// spans are the router-phase spans recorded so far, in order:
	// "route", then one "proxy:<id>" / "retry:<id>" per attempt.
	spans []*obs.TreeSpan

	backend        string // id of the backend that answered, "" if none
	backendAddr    string
	backendSampled bool // backend retained a tree for this request
	rerouted       bool
	status         int
	bytes          int
	shedReason     string
}

// beginProxyObs starts a request's observability: it resolves the
// request ID (inbound header, sanitized, else minted), stamps it on the
// outbound request headers (forward copies them) and on the client
// response, and draws the sampling decision: a sampled request is
// logged, and traced when the router keeps trees.
func (r *Router) beginProxyObs(w http.ResponseWriter, req *http.Request) *proxyObs {
	po := &proxyObs{start: time.Now()}
	rid := obs.SanitizeRequestID(req.Header.Get(obs.HeaderRequestID))
	if rid == "" {
		rid = r.ids.Next()
	}
	po.rid = rid
	req.Header.Set(obs.HeaderRequestID, rid)
	w.Header().Set(obs.HeaderRequestID, rid)
	po.sampled = r.sampler.Sample()
	po.traced = po.sampled && r.cfg.TreeRing != nil
	return po
}

// sinceStart returns the offset from the request's start, the span
// clock. Nil-safe (background health probes call attempt paths without
// a proxyObs).
func (po *proxyObs) sinceStart() time.Duration {
	if po == nil {
		return 0
	}
	return time.Since(po.start)
}

// noteRoute closes the implicit "route" phase: ring lookup and
// candidate selection, spanning from request start to now.
func (po *proxyObs) noteRoute() {
	if po == nil || !po.traced {
		return
	}
	po.spans = append(po.spans, &obs.TreeSpan{Name: "route", Start: 0, Dur: time.Since(po.start)})
}

// noteAttempt records one proxy attempt's span: "proxy:<id>" for the
// first try, "retry:<id>" for ring-order fallbacks.
func (po *proxyObs) noteAttempt(id string, try int, start, dur time.Duration) {
	if po == nil || !po.traced {
		return
	}
	name := "proxy:" + id
	if try > 0 {
		name = "retry:" + id
	}
	po.spans = append(po.spans, &obs.TreeSpan{Name: name, Start: start, Dur: dur})
}

// noteServed records the answering backend and response outcome.
func (po *proxyObs) noteServed(id, addr string, rerouted bool, status, bytes int, backendSampled bool) {
	if po == nil {
		return
	}
	po.backend = id
	po.backendAddr = addr
	po.rerouted = rerouted
	po.status = status
	po.bytes = bytes
	po.backendSampled = backendSampled
}

// noteStatus records a terminal non-shed status (bad gateway, a
// refused request body).
func (po *proxyObs) noteStatus(status int) {
	if po == nil {
		return
	}
	po.status = status
}

// noteShed records a router-decided shed by reason.
func (po *proxyObs) noteShed(reason string) {
	if po == nil {
		return
	}
	po.shedReason = reason
	po.status = http.StatusServiceUnavailable
}

// noteRelayedShed records the every-candidate-shed outcome, where the
// router relays the final backend's 503 instead of minting its own.
func (po *proxyObs) noteRelayedShed(status int) {
	if po == nil {
		return
	}
	po.shedReason = "backend_shed"
	po.status = status
}

// finishProxyObs completes a request's observability after the client
// was answered: it assembles the router span tree for traced requests
// (stitching the backend's tree under the proxy span when the backend
// retained one), retains it in the tree ring, and writes the access-log
// line (sampled requests, plus every shed).
func (r *Router) finishProxyObs(po *proxyObs) {
	if po == nil {
		return
	}
	wall := time.Since(po.start)

	if po.traced {
		tree := po.buildTree(wall)
		if po.backendSampled && po.backendAddr != "" {
			if sub, err := r.fetchBackendTree(po.backendAddr, po.rid); err == nil {
				// Attach under the span of the attempt that answered —
				// the last proxy/retry span, found by its ancestor chain.
				chain := obs.FindSpan(tree, po.attemptSpanName())
				obs.Graft(tree, chain, sub)
				r.mu.Lock()
				r.stitched++
				r.mu.Unlock()
			} else {
				r.mu.Lock()
				r.stitchErrors++
				r.mu.Unlock()
			}
		}
		r.cfg.TreeRing.Add(tree)
	}

	if r.cfg.AccessLog != nil && (po.sampled || po.shedReason != "") {
		r.cfg.AccessLog.WriteMeta(
			obs.Span{Worker: -1, Wall: wall, Sampled: po.sampled},
			po.bytes,
			obs.RequestMeta{
				RequestID:  po.rid,
				Backend:    po.backend,
				Status:     po.status,
				Rerouted:   po.rerouted,
				ShedReason: po.shedReason,
			})
	}
}

// attemptSpanName returns the span name of the answering attempt.
func (po *proxyObs) attemptSpanName() string {
	if po.rerouted {
		return "retry:" + po.backend
	}
	return "proxy:" + po.backend
}

// buildTree assembles the router's span tree. The router has no
// sim.Meter — it does no simulated work — so every router span carries
// zero cycles and the tree trivially holds the telescoping self-cycles
// invariant; grafting a backend tree preserves it (obs.Graft propagates
// the backend's inclusive vector up the ancestor chain).
func (po *proxyObs) buildTree(wall time.Duration) *obs.Tree {
	root := &obs.TreeSpan{Name: "request", Dur: wall, Children: po.spans}
	return &obs.Tree{ID: po.rid, Worker: -1, Start: po.start, Root: root}
}

// stitchFetchTimeout bounds the post-response fetch of a backend's span
// tree. The client is already answered when it runs, so the bound
// protects the router goroutine, not request latency.
const stitchFetchTimeout = 2 * time.Second

// fetchBackendTree retrieves the backend's span tree for a request ID
// from its /tracez?rid=<id>&format=tree endpoint. The backend adds the
// tree to its ring before writing the response body, so a fetch issued
// after the proxied response completes always finds it (absent ring
// eviction under extreme sampled load).
func (r *Router) fetchBackendTree(addr, rid string) (*obs.Tree, error) {
	ctx, cancel := context.WithTimeout(context.Background(), stitchFetchTimeout)
	defer cancel()
	body, err := r.fetchBody(ctx, "http://"+addr+"/tracez?format=tree&rid="+url.QueryEscape(rid))
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var trees []*obs.Tree
	if err := json.NewDecoder(io.LimitReader(body, 8<<20)).Decode(&trees); err != nil {
		return nil, fmt.Errorf("serve: tracez %s: %w", addr, err)
	}
	for i := len(trees) - 1; i >= 0; i-- {
		if trees[i] != nil && trees[i].ID == rid && trees[i].Root != nil {
			return trees[i], nil
		}
	}
	return nil, fmt.Errorf("serve: tracez %s: no tree for id %s", addr, rid)
}
