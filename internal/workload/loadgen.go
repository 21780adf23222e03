package workload

import (
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// LoadGenerator drives requests at a runtime the way the oss-performance
// suite's generator does (§5.1): a fixed warmup phase whose costs are
// discarded, then a measured phase.
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

// LatencyStats summarizes the per-request wall-clock latency distribution
// of a measured run — the tail percentiles the serving literature reports
// alongside throughput.
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

// Result is one measured load-generation run. Serial runs set Workers to
// 1; Pool.Run reports the fleet-level aggregate across all workers.
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
	Wall       time.Duration
	Latency    LatencyStats
}

// CyclesPerRequest returns the mean request cost.
func (r Result) CyclesPerRequest() float64 {
	if r.Requests == 0 {
		return 0
	}
	return r.Cycles / float64(r.Requests)
}

// CategoryShare returns the fraction of total cycles attributed to c
// (0 when the run recorded no cycles, never NaN).
func (r Result) CategoryShare(c sim.Category) float64 {
	if r.Cycles <= 0 {
		return 0
	}
	return r.Categories[c] / r.Cycles
}

// Throughput returns measured requests per wall-clock second (0 when the
// run recorded no wall time).
func (r Result) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Wall.Seconds()
}

// Run drives the workload: warmup (costs discarded, accelerator state
// kept warm), then the measured phase.
func (lg LoadGenerator) Run(rt *vm.Runtime, app App) Result {
	// serve is request i of a phase: the render, timed, then the
	// context-switch cadence (untimed, as between real requests).
	serve := func(i int) ([]byte, time.Duration) {
		reqStart := time.Now()
		page := app.ServeRequest(rt)
		lat := time.Since(reqStart)
		if lg.ContextSwitchEvery > 0 && (i+1)%lg.ContextSwitchEvery == 0 {
			rt.ContextSwitch()
		}
		return page, lat
	}
	for i := 0; i < lg.Warmup; i++ {
		serve(i)
	}
	// Discard warmup costs but keep hardware state warm, mirroring the
	// steady-state measurement window.
	rt.Meter().Reset()
	rt.Trace().Reset()

	res := Result{App: app.Name(), Requests: lg.Requests, Workers: 1}
	lats := make([]time.Duration, 0, lg.Requests)
	start := time.Now()
	for i := 0; i < lg.Requests; i++ {
		page, lat := serve(i)
		lats = append(lats, lat)
		res.ResponseBytes += int64(len(page))
	}
	res.Wall = time.Since(start)
	res.Latency = LatencyStatsFrom(lats)
	res.Cycles = rt.Meter().TotalCycles()
	res.Uops = rt.Meter().TotalUops()
	res.EnergyPJ = rt.Meter().TotalEnergy()
	res.Categories = rt.Meter().CategoryCyclesVec()
	res.Keys = keyStatsFromTrace(rt.Trace())
	return res
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
