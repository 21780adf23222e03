package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

// LoadOptions drives RunLoad: a closed-loop client fleet submitting
// requests through the scheduler, the way the benchrec scenarios
// exercise the lifecycle layer.
type LoadOptions struct {
	// Requests is the total number of submissions across all clients.
	Requests int
	// Clients is how many closed-loop submitters run concurrently
	// (<= 0 means one per pool worker). More clients than
	// workers+queue forces shedding, which is how overload is made
	// measurable on purpose.
	Clients int
	// Cache and Stall are every request's Request.Cache and
	// Request.Stall. A Cache requires PageKey.
	Cache *cache.Cache
	Stall time.Duration
	// PageKey draws the next request's page index (e.g. ZipfKeys.Next);
	// it is what gives requests their popularity distribution. With a
	// Cache it also names the cache key; without one, each render still
	// renders the drawn page — the uncached page-keyed traffic shape the
	// scripted tier scenarios use.
	PageKey func() int
}

// LoadStats is what a load run observed: per-outcome counts. Simulated
// costs for the same run come from the pools' merged meters afterwards.
type LoadStats struct {
	// Submitted is how many requests the clients actually issued
	// (less than Requests when the run was cancelled mid-flight).
	Submitted int
	// Served, ShedOverload, ShedDeadline, ShedCanceled, ShedDraining
	// partition Submitted by outcome.
	Served       int
	ShedOverload int
	ShedDeadline int
	ShedCanceled int
	ShedDraining int

	// CacheHits, CacheMisses, CacheCoalesced partition served requests
	// by cache outcome (all zero when the run had no cache).
	CacheHits      int
	CacheMisses    int
	CacheCoalesced int
}

// CacheHitRatio returns the fraction of served requests answered
// directly from the cache (0 when the run had no cache traffic).
func (ls LoadStats) CacheHitRatio() float64 {
	total := ls.CacheHits + ls.CacheMisses + ls.CacheCoalesced
	if total == 0 {
		return 0
	}
	return float64(ls.CacheHits) / float64(total)
}

// RunLoad submits opts.Requests requests through the scheduler from a
// closed-loop client fleet and reports the admission outcomes. Clients
// stop submitting when ctx is done (in-flight requests finish first),
// so a cancelled run returns the partial stats for everything that
// completed.
func RunLoad(ctx context.Context, s *Scheduler, opts LoadOptions) LoadStats {
	clients := opts.Clients
	if clients <= 0 {
		clients = s.pool.Size()
	}
	if clients > opts.Requests {
		clients = opts.Requests
	}

	var next int64 // next request index to claim; claims beyond Requests stop the client
	var mu sync.Mutex
	var ls LoadStats
	var outcomes [numOutcomes]int

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []byte // uncached bodies land here, reused across the client's requests
			for ctx.Err() == nil {
				if atomic.AddInt64(&next, 1) > int64(opts.Requests) {
					return
				}
				req := Request{Page: -1, Cache: opts.Cache, Stall: opts.Stall}
				if opts.PageKey != nil {
					req.Page = opts.PageKey()
				}
				resp, err := s.Serve(ctx, req, &scratch)
				mu.Lock()
				ls.Submitted++
				outcomes[OutcomeOf(err)]++
				if err == nil && opts.Cache != nil {
					switch resp.Cache {
					case cache.Hit:
						ls.CacheHits++
					case cache.Coalesced:
						ls.CacheCoalesced++
					default:
						ls.CacheMisses++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ls.Served = outcomes[OutcomeServed]
	ls.ShedOverload = outcomes[OutcomeOverload]
	ls.ShedDeadline = outcomes[OutcomeDeadline]
	ls.ShedCanceled = outcomes[OutcomeCanceled]
	ls.ShedDraining = outcomes[OutcomeDraining]
	return ls
}
