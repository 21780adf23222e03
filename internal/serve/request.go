package serve

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Request is one page request as every driver of the scheduler states
// it — Server's render handler and RunLoad's closed-loop clients.
type Request struct {
	// Page is the page identity to render; negative means the next
	// page of whichever worker picks it up (the worker's own
	// sequence).
	Page int
	// Profile builds a span tree around the render (or, for a cache
	// hit, the synthetic cache_hit tree carrying the lookup cost).
	Profile bool
	// Cache, when non-nil, sits between admission and the worker: a hit
	// or a coalesced wait never takes a worker slot. Requires Page >= 0
	// and a shared-seed pool, so any worker renders the same bytes for
	// the key.
	Cache *cache.Cache
	// Stall is the simulated database time of a render, held on the
	// worker after it (FPM blocking semantics). Zero disables it.
	Stall time.Duration
}

// Response is what Serve hands back for a served request.
type Response struct {
	// Body is the page. Without a cache it is the caller's scratch
	// buffer; with one it is the cache-owned entry and read-only.
	Body []byte
	// Span is the request's observability record, ready for a
	// Collector: Wall is the client-visible latency (admission to
	// copy-out), Worker is -1 when no worker rendered for this request
	// (hit or coalesced wait), and a profiled request's Tree has the
	// queue wait as its first child and a root spanning exactly Wall.
	Span obs.Span
	// Cache is the cache outcome (cache.Bypass without a cache).
	Cache cache.Outcome
	// Wait is the time spent queued for a worker. It is the one field
	// also valid on a failed Serve.
	Wait time.Duration
}

// Serve is the request path: admission, the cache when the request has
// one, a worker, the render, the stall, the context-switch cadence
// (Config.CtxSwitchEvery), and the copy out of the worker's recycled
// buffers before it is released — in that order, which the benchmark's
// in-process twin replays cycle for cycle. Errors are the typed
// admission outcomes of Do (see OutcomeOf) or the render's own.
//
// dst is the scratch buffer an uncached body is copied into (grown as
// needed, so pass the same one again); it may be nil for cached
// requests, whose bodies live in the cache.
func (s *Scheduler) Serve(ctx context.Context, req Request, dst *[]byte) (Response, error) {
	start := time.Now()
	resp := Response{Span: obs.Span{Worker: -1}, Cache: cache.Bypass}
	render := func(w *workload.Worker) ([]byte, error) {
		body, sp, err := w.ServePageSpanCtx(ctx, req.Page, req.Profile)
		if err != nil {
			return nil, err
		}
		if err := stall(ctx, req.Stall); err != nil {
			return nil, err
		}
		w.ContextSwitchEvery(s.cfg.CtxSwitchEvery)
		resp.Span = sp
		return body, nil
	}
	var err error
	switch {
	case req.Cache == nil:
		resp.Wait, err = s.Do(ctx, func(w *workload.Worker) error {
			body, err := render(w)
			if err != nil {
				return err
			}
			*dst = append((*dst)[:0], body...)
			resp.Body = *dst
			return nil
		})
	case req.Page < 0:
		return resp, errors.New("serve: a cached request needs a page identity")
	default:
		resp.Body, resp.Cache, resp.Wait, err = s.DoCached(ctx, req.Cache, PageKey(req.Page), render)
	}
	if err != nil {
		return resp, err
	}
	wall := time.Since(start)
	if resp.Cache == cache.Hit && req.Profile {
		lookup := req.Cache.LookupCostVec()
		resp.Span = obs.Span{
			Worker:  -1,
			Sampled: true,
			Tree:    obs.CacheHitTree(start, wall, lookup),
		}
	}
	// Latency as the client saw it, queueing and stall included, on the
	// span and on its tree alike.
	resp.Span.Wall = wall
	if t := resp.Span.Tree; t != nil {
		t.AddQueueSpan(resp.Wait)
		t.Root.Dur = wall
	}
	return resp, nil
}

// stall holds the calling worker for d or until ctx is done, returning
// the context's error when the client gave up or the deadline expired
// mid-stall.
func stall(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Outcome is what the lifecycle layer decided for one request — the
// classification frontends map to their protocol (phpserve: HTTP status
// and access-log label) and load drivers count.
type Outcome int

// Lifecycle outcomes. OutcomeError is a render failure, not a shed.
const (
	OutcomeServed Outcome = iota
	OutcomeOverload
	OutcomeDeadline
	OutcomeCanceled
	OutcomeDraining
	OutcomeError
	numOutcomes
)

// OutcomeOf classifies the error of a Serve, Do or DoCached call.
func OutcomeOf(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeServed
	case errors.Is(err, ErrOverloaded):
		return OutcomeOverload
	case errors.Is(err, ErrDeadline):
		return OutcomeDeadline
	case errors.Is(err, ErrCanceled):
		return OutcomeCanceled
	case errors.Is(err, ErrDraining):
		return OutcomeDraining
	}
	return OutcomeError
}

// pageKeys holds the cache keys of the first pages of the universe, so
// the serving hot path never concatenates a key per request; the Zipf
// samplers' default universes (512 pages) sit well inside it.
var pageKeys = func() []string {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = pageKeyPrefix + strconv.Itoa(i)
	}
	return keys
}()

const pageKeyPrefix = "page:"

// PageKey returns the cache key for a page index. It is the one
// spelling of page identity: the response cache stores under it and the
// router's affinity ring hashes it, so ring ownership and cache
// contents agree by construction.
func PageKey(page int) string {
	if page >= 0 && page < len(pageKeys) {
		return pageKeys[page]
	}
	return pageKeyPrefix + strconv.Itoa(page)
}

// ParsePage reads the ?page= parameter of a request's raw query, the
// one parser router and backend share so they cannot disagree on which
// page a request names. It returns -1 when the parameter is absent or
// empty (the frontend draws a page, or the worker serves its next
// request), and an error — a 400 in both binaries — for a query that
// does not parse, a repeated parameter, or a value that is not a
// non-negative decimal int ("07" and "+7" are page 7).
func ParsePage(rawQuery string) (int, error) {
	if rawQuery == "" {
		return -1, nil
	}
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return -1, fmt.Errorf("bad query: %v", err)
	}
	vals := q["page"]
	if len(vals) > 1 {
		return -1, fmt.Errorf("page given %d times", len(vals))
	}
	if len(vals) == 0 || vals[0] == "" {
		return -1, nil
	}
	page, err := strconv.Atoi(vals[0])
	if err != nil || page < 0 {
		return -1, fmt.Errorf("page %q is not a non-negative integer", vals[0])
	}
	return page, nil
}
