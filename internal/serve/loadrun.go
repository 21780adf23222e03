package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/workload"
)

// LoadOptions drives RunLoad: a closed-loop client fleet submitting
// requests through the scheduler, the way cmd/loadgen exercises the
// lifecycle layer.
type LoadOptions struct {
	// Requests is the total number of submissions across all clients.
	Requests int
	// Clients is how many closed-loop submitters run concurrently
	// (<= 0 means one per pool worker). More clients than
	// workers+queue forces shedding, which is how overload is made
	// measurable on purpose.
	Clients int
	// Collector, when non-nil, observes every served request and
	// samples span trees the way Pool.Run's collector path does.
	Collector *obs.Collector
	// Cache and Stall are every request's Request.Cache and
	// Request.Stall. A Cache requires PageKey and a pool whose workload
	// has page identity.
	Cache *cache.Cache
	Stall time.Duration
	// PageKey draws the next request's page index (e.g. ZipfKeys.Next);
	// it is what gives requests their popularity distribution. With a
	// Cache it also names the cache key; without one, each render still
	// goes through the drawn page's identity (requires a PageApp pool) —
	// the uncached page-keyed traffic shape the scripted tier scenarios
	// use.
	PageKey func() int
	// IDs mints per-request correlation IDs (the X-Request-Id form):
	// every submission carries an ID, sampled access-log lines record
	// it, and failed submissions retain it in LoadStats.ErrorSamples so
	// operators can grep logs by ID. Nil with a Collector set gets a
	// fresh source; nil without one disables minting entirely — with no
	// observer there is nothing to correlate against, and the bare
	// benchmark path must not pay an allocation per request for an ID
	// nobody records.
	IDs *obs.IDSource
}

// ErrorSample is one failed submission's correlation ID and error,
// retained so a run's error report names greppable request IDs.
type ErrorSample struct {
	ID  string
	Err error
}

// maxErrorSamples bounds LoadStats.ErrorSamples; overload runs shed
// thousands of requests and a sample is all an operator needs.
const maxErrorSamples = 8

// LoadStats is what a scheduler-driven load run observed: per-outcome
// counts and the queue-wait distribution. Simulated costs for the same
// run come from Pool.GatherResult afterwards.
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
	// QueueWait summarizes the time admitted requests waited for a
	// worker.
	QueueWait workload.LatencyStats
	// Latency is the end-to-end submit-to-response distribution over
	// served requests, cached or not — queue wait plus render (or cache
	// lookup). It is the client-visible latency loadgen prints.
	Latency workload.LatencyStats
	// Wall is the run's wall-clock duration.
	Wall time.Duration

	// CacheHits, CacheMisses, CacheCoalesced partition served requests
	// by cache outcome (all zero when the run had no cache).
	CacheHits      int
	CacheMisses    int
	CacheCoalesced int
	// HitLatency and MissLatency split end-to-end request latency by
	// cache outcome; coalesced waiters count as misses (they waited for
	// a render, just not their own).
	HitLatency  workload.LatencyStats
	MissLatency workload.LatencyStats

	// ErrorSamples retains the first maxErrorSamples failed submissions'
	// correlation IDs and errors (see LoadOptions.IDs).
	ErrorSamples []ErrorSample

	// rawLatencies retains the individual served-request latencies so a
	// cluster run can recompute percentiles across backends.
	rawLatencies []time.Duration
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

// Shed returns the total requests rejected for any reason.
func (ls LoadStats) Shed() int {
	return ls.ShedOverload + ls.ShedDeadline + ls.ShedCanceled + ls.ShedDraining
}

// RunLoad submits opts.Requests requests through the scheduler from a
// closed-loop client fleet and reports the admission outcomes. Clients
// stop submitting when ctx is done (in-flight requests finish first),
// so a SIGINT-cancelled run returns the partial stats for everything
// that completed.
func RunLoad(ctx context.Context, s *Scheduler, opts LoadOptions) LoadStats {
	clients := opts.Clients
	if clients <= 0 {
		clients = s.pool.Size()
	}
	if clients > opts.Requests {
		clients = opts.Requests
	}
	ids := opts.IDs
	if ids == nil && opts.Collector != nil {
		ids = obs.NewIDSource()
	}

	var next int64 // next request index to claim; claims beyond Requests stop the client
	var mu sync.Mutex
	var ls LoadStats
	var outcomes [numOutcomes]int
	var waits, lats, hitLats, missLats []time.Duration
	// Sized up front so the append-under-mutex in the hot loop never
	// reallocates mid-run.
	waits = make([]time.Duration, 0, opts.Requests)
	lats = make([]time.Duration, 0, opts.Requests)
	if opts.Cache != nil {
		hitLats = make([]time.Duration, 0, opts.Requests)
		missLats = make([]time.Duration, 0, opts.Requests)
	}

	start := time.Now()
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
				rid := ""
				if ids != nil {
					rid = ids.Next()
				}
				req := Request{
					Page:    -1,
					Profile: opts.Collector != nil && opts.Collector.ShouldSample(),
					Cache:   opts.Cache,
					Stall:   opts.Stall,
				}
				if opts.PageKey != nil {
					req.Page = opts.PageKey()
				}
				resp, err := s.Serve(ctx, req, &scratch)
				if err == nil && opts.Collector != nil {
					opts.Collector.ObserveHTTP(resp.Span, len(resp.Body), obs.RequestMeta{RequestID: rid, QueueWait: resp.Wait})
				}
				lat := resp.Span.Wall
				mu.Lock()
				ls.Submitted++
				outcomes[OutcomeOf(err)]++
				if err == nil {
					waits = append(waits, resp.Wait)
					lats = append(lats, lat)
					if opts.Cache != nil {
						switch resp.Cache {
						case cache.Hit:
							ls.CacheHits++
							hitLats = append(hitLats, lat)
						case cache.Coalesced:
							ls.CacheCoalesced++
							missLats = append(missLats, lat)
						default:
							ls.CacheMisses++
							missLats = append(missLats, lat)
						}
					}
				} else if ids != nil && len(ls.ErrorSamples) < maxErrorSamples {
					ls.ErrorSamples = append(ls.ErrorSamples, ErrorSample{ID: rid, Err: err})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ls.Wall = time.Since(start)
	ls.Served = outcomes[OutcomeServed]
	ls.ShedOverload = outcomes[OutcomeOverload]
	ls.ShedDeadline = outcomes[OutcomeDeadline]
	ls.ShedCanceled = outcomes[OutcomeCanceled]
	ls.ShedDraining = outcomes[OutcomeDraining]
	ls.rawLatencies = lats
	ls.QueueWait = workload.LatencyStatsFrom(waits)
	ls.Latency = workload.LatencyStatsFrom(lats)
	ls.HitLatency = workload.LatencyStatsFrom(hitLats)
	ls.MissLatency = workload.LatencyStatsFrom(missLats)
	return ls
}
