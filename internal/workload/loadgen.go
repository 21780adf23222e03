package workload

import (
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// LoadGenerator is a run the way the oss-performance suite's generator
// drives one (§5.1): a fixed warmup phase whose costs are discarded,
// then a measured phase. Pool.Run serves it; a serial run is a
// one-worker pool.
type LoadGenerator struct {
	// Warmup requests served before measurement (oss-performance: 300).
	Warmup int
	// Requests measured.
	Requests int
	// ContextSwitchEvery injects a context switch every n requests to
	// exercise the accelerator flush protocol (0 disables).
	ContextSwitchEvery int
}

// KeyStats aggregates hash key statistics from the trace (§4.2's "about
// 95% of keys are at most 24 bytes" and "15–25% SET" observations).
type KeyStats struct {
	Gets        int64
	Sets        int64
	ShortKeys   int64 // keys <= 24 bytes
	TotalKeys   int64
	DynamicKeys int64
}

// SetRatio returns the SET share of hash requests.
func (k KeyStats) SetRatio() float64 {
	if k.Gets+k.Sets == 0 {
		return 0
	}
	return float64(k.Sets) / float64(k.Gets+k.Sets)
}

// ShortKeyFrac returns the fraction of keys at most 24 bytes long.
func (k KeyStats) ShortKeyFrac() float64 {
	if k.TotalKeys == 0 {
		return 0
	}
	return float64(k.ShortKeys) / float64(k.TotalKeys)
}

// DynamicFrac returns the fraction of hash accesses using dynamic keys.
func (k KeyStats) DynamicFrac() float64 {
	if k.TotalKeys == 0 {
		return 0
	}
	return float64(k.DynamicKeys) / float64(k.TotalKeys)
}

// LatencyStats summarizes a per-request wall-clock latency distribution:
// phpserve's /stats latency_*_us keys and its /metrics summary
// quantiles, over the collector's bounded reservoir.
type LatencyStats struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// LatencyStatsFrom computes the distribution summary over per-request
// wall latencies. The input is not modified.
func LatencyStatsFrom(d []time.Duration) LatencyStats {
	if len(d) == 0 {
		return LatencyStats{}
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pct := func(q float64) time.Duration {
		// Nearest-rank percentile: the smallest value with at least q of
		// the distribution at or below it.
		idx := int(q*float64(len(s))+0.9999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		return s[idx]
	}
	var sum time.Duration
	for _, v := range s {
		sum += v
	}
	return LatencyStats{
		Count: len(s),
		Mean:  sum / time.Duration(len(s)),
		P50:   pct(0.50),
		P95:   pct(0.95),
		P99:   pct(0.99),
		Max:   s[len(s)-1],
	}
}

// Result is one measured load-generation run: Pool.Run's fleet-level
// aggregate across all workers.
type Result struct {
	App           string
	Requests      int
	Workers       int
	ResponseBytes int64
	Cycles        float64
	Uops          float64
	EnergyPJ      float64
	// Categories breaks Cycles down by activity category (exact, from
	// the merged meter — not derived from sampled spans).
	Categories sim.CategoryVec
	Keys       KeyStats
}

func keyStatsFromTrace(rec *trace.Recorder) KeyStats {
	var ks KeyStats
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindHashGet:
			ks.Gets++
		case trace.KindHashSet:
			ks.Sets++
		default:
			continue
		}
		ks.TotalKeys++
		if e.B <= 24 {
			ks.ShortKeys++
		}
		if e.C == 1 {
			ks.DynamicKeys++
		}
	}
	return ks
}
