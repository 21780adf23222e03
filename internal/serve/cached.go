package serve

import (
	"context"
	"time"

	"repro/internal/cache"
	"repro/internal/workload"
)

// DoCached is Do with a response cache between admission and worker
// acquisition: the request passes the same admission gate (drain state,
// deadline, bounded token), then consults the cache. A hit returns the
// cached bytes without ever touching the pool — no worker slot, no
// queue wait. A miss acquires a worker inside the cache's singleflight
// fill, so concurrent misses for the same key render once and the rest
// wait for that render instead of piling onto the pool (dogpile
// protection). The admission token is held for the full call either
// way, which keeps the number of requests inside the scheduler bounded
// exactly as for Do.
//
// The returned body is the cache-owned entry on every outcome and must
// be treated as read-only (the cache package's ownership contract);
// the fill path copies the render output to stable heap bytes while it
// still holds the worker, so recycled render buffers can never alias a
// live cache entry.
//
// The returned duration is the time the request waited for a worker
// (zero for hits and coalesced waiters). Error mapping matches Do:
// deadline expiry anywhere — at admission, queued, or while waiting on
// another caller's render — becomes ErrDeadline, and a canceled context
// (client abandoned) becomes ErrCanceled.
func (s *Scheduler) DoCached(ctx context.Context, c *cache.Cache, key string, render func(w *workload.Worker) ([]byte, error)) ([]byte, cache.Outcome, time.Duration, error) {
	ctx, cancel, err := s.admit(ctx)
	if err != nil {
		return nil, cache.Bypass, 0, err
	}
	defer s.leave(cancel)

	// Only the fill path — the elected leader of a miss — queues for a
	// worker; hits and coalesced waiters never enter the pool.
	var wait time.Duration
	body, outcome, err := c.GetOrFill(ctx, key, func() ([]byte, error) {
		w, qw, aerr := s.acquire(ctx)
		wait = qw
		if aerr != nil {
			return nil, aerr
		}
		defer s.pool.Release(w)
		page, rerr := render(w)
		if rerr != nil || page == nil {
			return nil, rerr
		}
		// The single defensive copy of the serve path: render's return
		// aliases the worker's recycled buffers, valid only while the
		// worker is held — so copy to stable heap bytes here, before the
		// deferred Release lets another request reuse them. Ownership of
		// the copy transfers to the cache, which is also why it must be
		// a plain allocation, never a pooled buffer: an evicted entry
		// may still have live readers, and only the GC can tell.
		stable := make([]byte, len(page))
		copy(stable, page)
		return stable, nil
	})
	if err := s.settle(err); err != nil {
		return nil, outcome, wait, err
	}
	return body, outcome, wait, nil
}
