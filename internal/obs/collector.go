package obs

import (
	"io"
	"sync"
	"time"
)

// maxRetainedLatencies bounds the collector's latency reservoir; beyond
// it the oldest half is discarded so quantiles track recent traffic.
const maxRetainedLatencies = 1 << 16

// Collector is the serving stack's aggregation point. Every request
// flows through Observe, which assigns the request sequence number,
// updates the counters and the latency histogram, and retains the
// latency in a bounded reservoir for quantile reporting; sampled spans
// are additionally written to the access log. Safe for concurrent use.
type Collector struct {
	sampler *Sampler
	log     *AccessLog // nil when access logging is disabled
	trees   *TreeRing  // nil when span-tree retention is disabled

	mu        sync.Mutex
	requests  int64
	respBytes int64
	sampled   int64
	hist      *Histogram
	latencies []time.Duration
}

// NewCollector builds a collector sampling spans at rate (0 disables
// spans, 1 profiles every request), logging sampled requests as JSON
// lines to logW (nil disables the access log), with a latency histogram
// over buckets (nil selects DefLatencyBuckets).
func NewCollector(rate float64, logW io.Writer, buckets []float64) *Collector {
	if buckets == nil {
		buckets = DefLatencyBuckets()
	}
	c := &Collector{
		sampler: NewSampler(rate),
		hist:    NewHistogram(buckets),
	}
	if logW != nil {
		c.log = NewAccessLog(logW)
	}
	return c
}

// SetBackend stamps the access log's backend field with this process's
// cluster identity (see AccessLog.SetBackend). A nil-log collector
// ignores it. Call before serving starts.
func (c *Collector) SetBackend(id string) {
	if c.log != nil {
		c.log.SetBackend(id)
	}
}

// ShouldSample reports whether the next request should be served through
// the profiled path (Worker.ServePageSpanCtx), advancing the sampling
// counter.
func (c *Collector) ShouldSample() bool { return c.sampler.Sample() }

// SetTreeRing attaches a ring retaining sampled requests' span trees
// (the /tracez backing store). Must be called before serving starts; a
// nil ring disables retention.
func (c *Collector) SetTreeRing(r *TreeRing) { c.trees = r }

// TreeRing returns the attached span-tree ring, or nil.
func (c *Collector) TreeRing() *TreeRing { return c.trees }

// RequestMeta carries per-request context an HTTP front end knows but
// the worker pool does not: identity (truncated for the access log, so
// callers can pass it straight from the request) plus the lifecycle
// outcome the serve layer decided.
type RequestMeta struct {
	Path      string
	UserAgent string
	// RequestID is the cross-process correlation ID (X-Request-Id):
	// minted by the router or the standalone server, echoed to the
	// client, and stamped on sampled span trees so one ID ties the
	// router log line, backend log line, and trace together.
	RequestID string
	// Backend, when non-empty, overrides the log's process-level
	// backend field for this line — the router uses it to record which
	// backend served each proxied request.
	Backend string
	// Status is the HTTP status the frontend answered with (0 is
	// logged as omitted, for entries that predate status reporting).
	Status int
	// Outcome names a non-served lifecycle result ("shed_overload",
	// "timeout", "draining"); empty for served requests.
	Outcome string
	// Rerouted marks requests the router answered from a ring-order
	// fallback owner after the primary refused or shed.
	Rerouted bool
	// ShedReason carries the router-level shed reason ("overload",
	// "no_backend", "draining") on shed lines; empty otherwise.
	ShedReason string
	// QueueWait is the time the request spent waiting for a worker
	// before rendering (or before being shed).
	QueueWait time.Duration
}

// Observe records one served request: it assigns the span's request
// sequence number, bumps the fleet counters, feeds the latency histogram
// and reservoir, and writes sampled spans to the access log. The
// completed span is returned.
func (c *Collector) Observe(sp Span, respBytes int) Span {
	return c.ObserveHTTP(sp, respBytes, RequestMeta{})
}

// ObserveHTTP is Observe plus HTTP request metadata for the access log.
// It also stamps the span's tree (if any) with the assigned request
// number and retains it in the tree ring.
func (c *Collector) ObserveHTTP(sp Span, respBytes int, meta RequestMeta) Span {
	c.mu.Lock()
	c.requests++
	sp.Request = uint64(c.requests)
	c.respBytes += int64(respBytes)
	if sp.Sampled {
		c.sampled++
	}
	c.hist.Observe(sp.Wall.Seconds())
	if len(c.latencies) >= maxRetainedLatencies {
		c.latencies = append(c.latencies[:0], c.latencies[len(c.latencies)/2:]...)
	}
	c.latencies = append(c.latencies, sp.Wall)
	c.mu.Unlock()

	if sp.Tree != nil {
		sp.Tree.Request = sp.Request
		if c.trees != nil {
			c.trees.Add(sp.Tree)
		}
	}
	if c.log != nil && sp.Sampled {
		c.log.WriteMeta(sp, respBytes, meta)
	}
	return sp
}

// ObserveShed records a request the lifecycle layer rejected before it
// reached a worker. Sheds bypass the counters and the latency histogram
// (there was no render; serve.Stats counts them by reason), and — unlike
// served requests, which are sampled — every shed is written to the
// access log: sheds are rare, and each one is an operator-relevant event.
func (c *Collector) ObserveShed(meta RequestMeta) {
	if c.log != nil {
		c.log.WriteMeta(Span{Worker: -1, Wall: meta.QueueWait}, 0, meta)
	}
}

// Snapshot is a consistent copy of the collector's state; its tags are
// the one declaration of the request counters on /stats and /metrics.
type Snapshot struct {
	Requests      int64             `json:"requests" prom:"requests_total,counter,base" help:"Requests served since startup."`
	ResponseBytes int64             `json:"response_bytes" prom:"response_bytes_total,counter,base" help:"Response body bytes written since startup."`
	SampledSpans  int64             `json:"sampled_spans" prom:"sampled_spans_total,counter,base" help:"Requests that carried a per-request attribution span."`
	Latency       HistogramSnapshot `json:"-" prom:"request_latency_seconds,histogram" help:"Request wall latency, queueing included."`
	// Latencies is a copy of the bounded recent-latency reservoir, for
	// quantile computation (workload.LatencyStatsFrom).
	Latencies []time.Duration `json:"-"`
}

// Snapshot returns a consistent copy of the counters, histogram, and
// latency reservoir.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Requests:      c.requests,
		ResponseBytes: c.respBytes,
		SampledSpans:  c.sampled,
		Latency:       c.hist.Snapshot(),
		Latencies:     append([]time.Duration(nil), c.latencies...),
	}
}
