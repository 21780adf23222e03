package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// median returns the middle value of vs (mean of the middle two for an
// even count) and 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile
// of vs as a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (position p*(n+1), interpolated):
// the spread figure the benchmark driver and README.md use. Fewer than
// two values have no spread.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		j = max(1, min(j, n-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / median(s)
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// latencies: the smallest sample with at least q of the samples at or
// below it. An empty slice yields 0.
func percentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// histMean is the mean observation, in seconds, added to a Prometheus
// histogram between two scrapes (Δsum/Δcount), and the Δcount itself.
// A histogram that did not advance yields (0, 0).
func histMean(before, after obs.HistogramSnapshot) (mean float64, n uint64) {
	if after.Count <= before.Count {
		return 0, 0
	}
	n = after.Count - before.Count
	return (after.Sum - before.Sum) / float64(n), n
}
