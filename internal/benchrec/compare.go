package benchrec

import (
	"fmt"
	"reflect"
	"sort"
)

// Allowed absolute allocs/op increase over the committed record. The
// runtime's own background allocations (GC bookkeeping) shift the per-op
// mean by a few hundredths run to run even on identical code, while any
// real added allocation on the request path costs at least +1 per op, so
// both slacks sit well below 1. Scheduler-driven scenarios (Clients > 0)
// get the tighter one: the arena-backed serve path holds steady-state
// allocations in the tens per request, so its gate must catch even a
// single stray allocation amortized across a run.
const (
	directAllocsSlack = 0.5
	serveAllocsSlack  = 0.1
)

// SimDrift is the whole record comparison: it returns one "scenario:
// Field base -> fresh" line for every way fresh differs from base. The
// seed, the set of scenarios, and every Scenario field — pinned
// configuration, simulated cycles and energy, category cycles (one line
// per category), served/shed/cache counts, tier counters — are compared
// exactly: for one seed they are a pure function of the code, so any
// difference is a behaviour change that needs a new committed baseline
// and a reason. AllocsPerOp alone gets a slack (see the constants
// above) and only reports a rise.
func SimDrift(base, fresh Record) []string {
	var drift []string
	if base.Seed != fresh.Seed {
		drift = append(drift, fmt.Sprintf("record: Seed %d -> %d", base.Seed, fresh.Seed))
	}
	name := func(sc Scenario) string { return sc.Name }
	return append(drift, KeyedDrift(base.Scenarios, fresh.Scenarios, name, scenarioDrift)...)
}

// KeyedDrift is the walk every committed record is compared with: diff
// reports on each base entry whose key fresh also holds, in base order,
// and an entry on one side only is itself a line — first those fresh
// lost, then those it gained. SimDrift runs it over scenarios keyed by
// name, experiments.Drift over FIGURES.json's values.
func KeyedDrift[T any](base, fresh []T, key func(T) string, diff func(b, f T) []string) []string {
	byKey := make(map[string]T, len(fresh))
	for _, f := range fresh {
		byKey[key(f)] = f
	}
	var drift []string
	inBase := make(map[string]bool, len(base))
	for _, b := range base {
		inBase[key(b)] = true
		if f, ok := byKey[key(b)]; ok {
			drift = append(drift, diff(b, f)...)
		} else {
			drift = append(drift, key(b)+": missing from the fresh record")
		}
	}
	for _, f := range fresh {
		if !inBase[key(f)] {
			drift = append(drift, key(f)+": not in the committed record")
		}
	}
	return drift
}

// scenarioDrift compares one scenario field by field.
func scenarioDrift(b, f Scenario) []string {
	var drift []string
	bv, fv := reflect.ValueOf(b), reflect.ValueOf(f)
	for i := 0; i < bv.NumField(); i++ {
		switch field := bv.Type().Field(i).Name; field {
		case "AllocsPerOp":
			slack := directAllocsSlack
			if b.Clients > 0 {
				slack = serveAllocsSlack
			}
			if limit := b.AllocsPerOp + slack; f.AllocsPerOp > limit {
				drift = append(drift, fmt.Sprintf("%s: AllocsPerOp %.2f -> %.2f (limit %.2f)",
					b.Name, b.AllocsPerOp, f.AllocsPerOp, limit))
			}
		case "SimCategoryCycles":
			for _, cat := range unionKeys(b.SimCategoryCycles, f.SimCategoryCycles) {
				if bc, fc := b.SimCategoryCycles[cat], f.SimCategoryCycles[cat]; bc != fc {
					drift = append(drift, fmt.Sprintf("%s: SimCategoryCycles[%s] %v -> %v", b.Name, cat, bc, fc))
				}
			}
		default:
			if bf, ff := bv.Field(i).Interface(), fv.Field(i).Interface(); !reflect.DeepEqual(bf, ff) {
				drift = append(drift, fmt.Sprintf("%s: %s %v -> %v", b.Name, field, bf, ff))
			}
		}
	}
	return drift
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys(a, b map[string]float64) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
