// Package obs is the serving stack's observability layer: per-request
// cost attribution spans, bounded-overhead sampling, a latency
// histogram, a JSON-lines access log, and a Prometheus text-format
// encoder for the /metrics endpoint of cmd/phpserve.
//
// The design follows the paper's own argument: its contribution rests on
// *attribution* — knowing that hash map access, heap management, string
// manipulation, and regexp processing dominate the post-mitigation
// profile (§4–5). A Span captures exactly that breakdown for one request
// by diffing the worker's sim.Meter around the render, so an operator
// can see where simulated cycles go per request while the fleet is under
// load, not just in the merged totals.
//
// Overhead is bounded two ways: spans are sampled (Sampler, default rate
// 0.01 in phpserve) so the meter snapshot cost is paid on a small
// fraction of requests, and everything on the per-request path is
// counter arithmetic — encoding happens only at scrape time. The
// Collector is the aggregation point: every request feeds its counters
// and latency histogram; sampled spans additionally go to the access
// log. Fleet-exact per-category totals come from sim.Meter.Merge /
// trace.Recorder.Merge at scrape time, not from the sampled spans, so
// sampling never biases the exported counters.
package obs

import "time"

// Span is the per-request cost attribution record: wall latency and,
// for a sampled request, the span tree whose root holds its simulated
// cycles broken down by activity category (the paper's four accelerator
// categories plus the abstraction/kernel/other remainder). A span is
// produced by workload.Worker.ServePageSpanCtx; unsampled requests carry
// a span with only Wall and Worker set.
type Span struct {
	// Request is the server-assigned request sequence number (set by
	// Collector.ObserveHTTP).
	Request uint64
	// Worker is the pool worker that served the request.
	Worker int
	// Wall is the request's wall-clock latency.
	Wall time.Duration
	// Sampled marks spans that were profiled.
	Sampled bool
	// Tree is the request's span tree (sampled only, nil otherwise): its
	// root carries the request's simulated cycles and their breakdown by
	// sim.Category, decomposed hierarchically into the phases and calls
	// that accumulated them.
	Tree *Tree
}
