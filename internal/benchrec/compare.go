package benchrec

import (
	"fmt"
	"reflect"
	"sort"
)

// Allowed absolute allocs/op move, either way, from the committed
// record. The runtime's own background allocations (GC bookkeeping)
// shift the per-op mean by a few hundredths run to run even on identical
// code, while any real allocation added to or removed from the request
// path moves it by at least 1 per op, so both slacks sit well below 1. In-process scheduler scenarios (Clients
// > 0, no Backends) get the tighter one: the arena-backed serve path
// holds steady-state allocations in the tens per request, so its gate
// must catch even a single stray allocation amortized across a run. The
// cluster scenarios cross loopback sockets on three connection ends per
// request, and net/http's request and response parsers refill their
// pooled readers after each GC, which moves their mean by up to 0.1,
// so they get the looser one.
const (
	directAllocsSlack = 0.5
	serveAllocsSlack  = 0.1
)

// SimDrift is the whole record comparison: it returns one "scenario:
// Field base -> fresh" line for every way fresh differs from base. The
// seed, the set of scenarios, and every Scenario field — pinned
// configuration, simulated cycles and energy, served/shed/cache counts,
// tier counters — are compared exactly: for one seed they are a pure
// function of the code, so any difference is a behaviour change that
// needs a new committed baseline and a reason. A map field compares key
// by key, one "scenario: Field[key] base -> fresh" line per key that
// moved, so a category's line is followed by the lines of the leaf
// functions that moved it; a base record that predates the field (a
// schema 2 record has no SimFnCycles) compares nothing there.
// AllocsPerOp alone gets a slack (see the constants above), in both
// directions: a rise past it is a regression, a fall past it a gain the
// record must be re-recorded to keep, so that no later change can give
// it back unseen.
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
			if b.Clients > 0 && b.Backends == 0 {
				slack = serveAllocsSlack
			}
			switch d := f.AllocsPerOp - b.AllocsPerOp; {
			case d > slack:
				drift = append(drift, fmt.Sprintf("%s: AllocsPerOp %.2f -> %.2f (limit %.2f)",
					b.Name, b.AllocsPerOp, f.AllocsPerOp, b.AllocsPerOp+slack))
			case d < -slack:
				drift = append(drift, fmt.Sprintf("%s: AllocsPerOp %.2f -> %.2f (fell past %.2f: re-record with `make bench-record` to keep the gain)",
					b.Name, b.AllocsPerOp, f.AllocsPerOp, b.AllocsPerOp-slack))
			}
		default:
			bf, ff := bv.Field(i).Interface(), fv.Field(i).Interface()
			bm, isMap := bf.(map[string]float64)
			switch {
			case isMap && bm == nil: // the base record predates the field
			case isMap:
				fm := ff.(map[string]float64)
				for _, k := range unionKeys(bm, fm) {
					if bm[k] != fm[k] {
						drift = append(drift, fmt.Sprintf("%s: %s[%s] %v -> %v", b.Name, field, k, bm[k], fm[k]))
					}
				}
			case !reflect.DeepEqual(bf, ff):
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
