package benchrec

import (
	"fmt"
	"reflect"
	"strings"
)

// Tolerances bound how far a fresh run may drift from the committed
// record before Compare reports a regression. Throughput and p99 are
// fractional; allocs/op gets a small absolute slack instead — the
// runtime's own background allocations (timers, GC bookkeeping) shift
// the per-op mean by a few hundredths run to run even on identical
// code (visible in the committed trajectory: BENCH_1's scheduler
// records 1753.98, BENCH_2's 1753.99), while any real added allocation
// on the request path costs at least +1 per op. The slack must
// therefore sit well below 1.
type Tolerances struct {
	// ThroughputDrop is the allowed fractional throughput decrease
	// (0.05 = fail below 95% of the committed req/s).
	ThroughputDrop float64
	// P99Rise is the allowed fractional p99 latency increase
	// (0.10 = fail above 110% of the committed p99).
	P99Rise float64
	// AllocsSlack is the allowed absolute allocs/op increase
	// (0.5 = fail above committed + 0.5 allocations per request) on
	// direct pool scenarios (Clients == 0).
	AllocsSlack float64
	// ServeAllocsSlack is the (tighter) allocs/op slack applied to
	// scheduler-driven scenarios (Clients > 0) — the arena-backed serve
	// path holds steady-state allocations near zero per request, so its
	// gate must catch even a single stray allocation amortized across a
	// run; 0.1 sits above run-to-run MemStats jitter but well below the
	// +1 any real added allocation per request costs.
	ServeAllocsSlack float64
}

// DefaultTolerances returns the documented regression gates:
// throughput −5%, p99 +10%, allocs/op +0.5 absolute on direct
// scenarios and +0.1 on serve (scheduler/cache/cluster) scenarios.
func DefaultTolerances() Tolerances {
	return Tolerances{ThroughputDrop: 0.05, P99Rise: 0.10, AllocsSlack: 0.5, ServeAllocsSlack: 0.1}
}

// Regression is one metric that moved past its tolerance.
type Regression struct {
	// Scenario and Metric locate the failure.
	Scenario string
	Metric   string
	// Base and Fresh are the committed and fresh values.
	Base  float64
	Fresh float64
	// Limit is the threshold the fresh value crossed.
	Limit float64
}

// String renders the violation as "scenario/metric: base -> fresh".
func (r Regression) String() string {
	return fmt.Sprintf("%s/%s: %.2f -> %.2f (limit %.2f)", r.Scenario, r.Metric, r.Base, r.Fresh, r.Limit)
}

// Compare diffs fresh against base and returns every tolerance
// violation. It errors (rather than reporting a bogus clean pass) when
// the records are not comparable: schema, scale, or seed mismatch, or a
// scenario configuration drift — those need a new committed baseline,
// not a regression verdict.
//
// When both records carry a calibration (Record.CalibOpsPerSec), the
// wall-clock limits are relaxed by the measured host slowdown: a fresh
// side running on a host the calibration shows to be k× slower gets its
// throughput floor divided and its p99 ceiling multiplied by k, so
// shared-host speed shifts cannot fake a code regression. The factor
// only ever relaxes (a *faster* fresh host never tightens the gate):
// sleep-bound scenarios like the cluster sweep do not speed up with the
// CPU, and a tightened ceiling would fail them spuriously.
func Compare(base, fresh Record, tol Tolerances) ([]Regression, error) {
	if base.Schema != fresh.Schema {
		return nil, fmt.Errorf("benchrec: schema mismatch: committed %d vs fresh %d", base.Schema, fresh.Schema)
	}
	if base.Scale != fresh.Scale || base.Seed != fresh.Seed {
		return nil, fmt.Errorf("benchrec: records not comparable: committed scale=%s seed=%d vs fresh scale=%s seed=%d",
			base.Scale, base.Seed, fresh.Scale, fresh.Seed)
	}
	slow := 1.0
	if base.CalibOpsPerSec > 0 && fresh.CalibOpsPerSec > 0 {
		if r := base.CalibOpsPerSec / fresh.CalibOpsPerSec; r > 1 {
			slow = r
		}
	}
	var regs []Regression
	for _, b := range base.Scenarios {
		f, ok := fresh.Scenario(b.Name)
		if !ok {
			return nil, fmt.Errorf("benchrec: fresh run is missing scenario %q", b.Name)
		}
		if b.App != f.App || b.Workers != f.Workers || b.Warmup != f.Warmup || b.Requests != f.Requests ||
			b.Accelerated != f.Accelerated || b.CacheCapacity != f.CacheCapacity ||
			b.ZipfPages != f.ZipfPages || b.Backends != f.Backends || b.DBWaitMS != f.DBWaitMS ||
			b.Tier != f.Tier {
			return nil, fmt.Errorf("benchrec: scenario %q configuration drifted; commit a new baseline", b.Name)
		}
		if limit := b.ReqPerSec * (1 - tol.ThroughputDrop) / slow; f.ReqPerSec < limit {
			regs = append(regs, Regression{b.Name, "req_per_sec", b.ReqPerSec, f.ReqPerSec, limit})
		}
		if limit := b.P99US * (1 + tol.P99Rise) * slow; f.P99US > limit {
			regs = append(regs, Regression{b.Name, "p99_us", b.P99US, f.P99US, limit})
		}
		slack := tol.AllocsSlack
		if b.Clients > 0 && tol.ServeAllocsSlack > 0 {
			slack = tol.ServeAllocsSlack
		}
		if limit := b.AllocsPerOp + slack; f.AllocsPerOp > limit {
			regs = append(regs, Regression{b.Name, "allocs_per_op", b.AllocsPerOp, f.AllocsPerOp, limit})
		}
	}
	return regs, nil
}

// SimDrift returns, for every scenario whose deterministic fields — what
// Canonical keeps: simulated cycles and energy per request, category
// cycles, served/shed/cache counts, tier counters — differ between base
// and fresh, a "scenario: field base -> fresh" line per differing field.
// Unlike the wall-clock gates these have no tolerance: for one seed and
// scale they are a pure function of the code, so any difference is a
// behaviour change that needs a new committed baseline and a reason.
func SimDrift(base, fresh Record) []string {
	var drift []string
	fc := fresh.Canonical()
	for _, b := range base.Canonical().Scenarios {
		f, ok := fc.Scenario(b.Name)
		if !ok || reflect.DeepEqual(b, f) {
			continue
		}
		bv, fv := reflect.ValueOf(b), reflect.ValueOf(f)
		for i := 0; i < bv.NumField(); i++ {
			if !reflect.DeepEqual(bv.Field(i).Interface(), fv.Field(i).Interface()) {
				drift = append(drift, fmt.Sprintf("%s: %s %v -> %v",
					b.Name, bv.Type().Field(i).Name, bv.Field(i).Interface(), fv.Field(i).Interface()))
			}
		}
	}
	return drift
}

// RenderTable renders a side-by-side committed-vs-fresh table for every
// scenario and gated metric, marking tolerance violations — the
// human-readable half of a failed bench-check.
func RenderTable(base, fresh Record, regs []Regression) string {
	failed := map[string]bool{}
	for _, r := range regs {
		failed[r.Scenario+"/"+r.Metric] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %14s %14s %8s\n", "scenario", "metric", "committed", "fresh", "status")
	for _, bs := range base.Scenarios {
		fs, ok := fresh.Scenario(bs.Name)
		if !ok {
			continue
		}
		rows := []struct {
			metric      string
			base, fresh float64
		}{
			{"req_per_sec", bs.ReqPerSec, fs.ReqPerSec},
			{"p99_us", bs.P99US, fs.P99US},
			{"allocs_per_op", bs.AllocsPerOp, fs.AllocsPerOp},
			{"cache_hit_ratio", bs.CacheHitRatio, fs.CacheHitRatio},
			{"sim_cycles_per_req", bs.SimCyclesPerReq, fs.SimCyclesPerReq},
		}
		for _, row := range rows {
			status := "ok"
			if failed[bs.Name+"/"+row.metric] {
				status = "FAIL"
			}
			fmt.Fprintf(&b, "%-12s %-18s %14.2f %14.2f %8s\n", bs.Name, row.metric, row.base, row.fresh, status)
		}
	}
	if len(regs) > 0 {
		fmt.Fprintf(&b, "\n%d regression(s) beyond tolerance:\n", len(regs))
		for _, r := range regs {
			fmt.Fprintf(&b, "  %s\n", r)
		}
	}
	return b.String()
}
