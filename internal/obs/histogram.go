package obs

// Histogram is a fixed-bucket histogram in the Prometheus style: each
// observation lands in the first bucket whose upper bound is >= the
// value, with an implicit +Inf overflow bucket. It stores per-bucket
// (non-cumulative) counts; Snapshot produces the cumulative view the
// text exposition format requires. Not safe for concurrent use on its
// own — the Collector serializes access.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// DefLatencyBuckets are the default request-latency bucket bounds in
// seconds. The ladder spans the microsecond range a simulated render
// covers and continues through 30s so overload-length waits (long
// -timeout/-drain settings) still land in finite buckets instead of
// collapsing into +Inf exactly when the tail matters.
func DefLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
	}
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is not copied; callers must not mutate it.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// HistogramSnapshot is an immutable cumulative view of a histogram, the
// shape the Prometheus text format exports: Counts[i] is the number of
// observations <= Bounds[i], and Count (the +Inf bucket) covers all.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // cumulative, same length as Bounds
	Sum    float64
	Count  uint64
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the cumulative
// bucket counts by linear interpolation within the containing bucket,
// the standard Prometheus histogram_quantile estimate. Observations in
// the +Inf bucket clamp to the highest finite bound (there is no upper
// edge to interpolate toward), and an empty snapshot returns 0. It is
// how every latency quantile is reported, for one server's histogram
// and for a merged fleet's alike.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, c := range s.Counts {
		if float64(c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			prev := uint64(0)
			if i > 0 {
				prev = s.Counts[i-1]
			}
			inBucket := float64(c - prev)
			if inBucket == 0 {
				return s.Bounds[i]
			}
			return lower + (s.Bounds[i]-lower)*(rank-float64(prev))/inBucket
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot returns the cumulative view of the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)),
		Sum:    h.sum,
		Count:  h.count,
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i]
		s.Counts[i] = cum
	}
	return s
}
