// Command bench_compare is the benchmark-trajectory gate `make
// bench-check` runs: it loads the latest committed BENCH_<n>.json,
// reruns the pinned benchrec matrix fresh at the record's scale and
// seed, diffs the two, and exits nonzero with a side-by-side table when
// any metric moved past its tolerance (throughput −5%, p99 +10%,
// allocs/op +0.5 absolute) or any deterministic field — simulated
// cycles, energy, category cycles, served/shed/cache counts — differs
// at all.
//
// Usage:
//
//	go run ./scripts [-dir .] [-against BENCH_3.json] [-fresh rec.json] [-selftest]
//
// -against pins the committed side to a specific record instead of the
// latest. -fresh diffs a pre-recorded file instead of running the
// matrix (regression triage: compare any two committed records).
// -selftest skips the full-scale matrix and instead proves the gate
// works: a quick-scale run is self-compared (must pass) and then
// doctored past every tolerance (must fail) — the env-gated mode
// `make ci` runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/benchrec"
)

func main() {
	dir := flag.String("dir", ".", "directory holding committed BENCH_<n>.json records")
	against := flag.String("against", "", "committed record to compare against (default: latest BENCH_<n>.json in -dir)")
	freshPath := flag.String("fresh", "", "use this record file as the fresh side instead of running the matrix")
	selftest := flag.Bool("selftest", false, "run the quick-scale gate self-test instead of a full comparison")
	flag.Parse()

	if err := run(*dir, *against, *freshPath, *selftest); err != nil {
		fmt.Fprintln(os.Stderr, "bench-check:", err)
		os.Exit(1)
	}
}

func run(dir, against, freshPath string, selftest bool) error {
	if selftest {
		return runSelftest()
	}

	if against == "" {
		latest, err := benchrec.LatestSeq(dir)
		if err != nil {
			return err
		}
		if latest == 0 {
			return fmt.Errorf("no BENCH_<n>.json records in %s; run `make bench-record` first", dir)
		}
		against = filepath.Join(dir, benchrec.Filename(latest))
	}
	base, err := benchrec.Load(against)
	if err != nil {
		return err
	}

	var fresh benchrec.Record
	if freshPath != "" {
		fresh, err = benchrec.Load(freshPath)
		if err != nil {
			return err
		}
	} else {
		fmt.Printf("comparing against %s (scale %s, seed %d); running fresh matrix...\n", against, base.Scale, base.Seed)
		// 5 trials, metric-wise best: the fresh side estimates the same
		// unloaded-machine statistic the committed record did, so host
		// contention during any single trial cannot fake a regression.
		fresh, err = benchrec.RunMatrix(benchrec.Options{Scale: base.Scale, Seed: base.Seed, Trials: 5})
		if err != nil {
			return err
		}
	}

	if base.CalibOpsPerSec > 0 && fresh.CalibOpsPerSec > 0 {
		fmt.Printf("calibration: committed %.3g spin ops/s, fresh %.3g (host speed ratio %.3f; slowdowns relax the wall-clock gates)\n",
			base.CalibOpsPerSec, fresh.CalibOpsPerSec, fresh.CalibOpsPerSec/base.CalibOpsPerSec)
	}
	regs, err := benchrec.Compare(base, fresh, benchrec.DefaultTolerances())
	if err != nil {
		return err
	}
	fmt.Print(benchrec.RenderTable(base, fresh, regs))
	drift := benchrec.SimDrift(base, fresh)
	for _, d := range drift {
		fmt.Println("simulated result drifted:", d)
	}
	if len(regs) > 0 || len(drift) > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond tolerance and %d deterministic field(s) drifted vs %s", len(regs), len(drift), against)
	}
	fmt.Println("bench-check: no regressions beyond tolerance, simulated results identical")
	return nil
}

// runSelftest proves the gate trips: a quick matrix self-compares clean,
// then a doctored copy must produce exactly the injected regressions.
func runSelftest() error {
	rec, err := benchrec.RunMatrix(benchrec.Options{Scale: "quick"})
	if err != nil {
		return err
	}
	regs, err := benchrec.Compare(rec, rec, benchrec.DefaultTolerances())
	if err != nil {
		return err
	}
	if len(regs) != 0 {
		return fmt.Errorf("self-comparison reported regressions: %v", regs)
	}

	doctored := rec
	doctored.Scenarios = append([]benchrec.Scenario(nil), rec.Scenarios...)
	doctored.Scenarios[0].ReqPerSec *= 0.5
	doctored.Scenarios[1].P99US *= 2
	doctored.Scenarios[2].AllocsPerOp++
	// Between the serve slack (0.1) and the direct slack (0.5): must
	// trip the tighter gate on a scheduler-driven scenario.
	doctored.Scenarios[3].AllocsPerOp += 0.2
	regs, err = benchrec.Compare(rec, doctored, benchrec.DefaultTolerances())
	if err != nil {
		return err
	}
	if len(regs) != 4 {
		fmt.Print(benchrec.RenderTable(rec, doctored, regs))
		return fmt.Errorf("injected 4 regressions, gate caught %d", len(regs))
	}
	// The simulated side has no tolerance: one cycle per request off in
	// one scenario must be reported, and nothing else.
	if drift := benchrec.SimDrift(rec, doctored); len(drift) != 0 {
		return fmt.Errorf("wall-clock-only changes reported as simulated drift: %v", drift)
	}
	doctored.Scenarios[4].SimCyclesPerReq++
	if drift := benchrec.SimDrift(rec, doctored); len(drift) != 1 {
		return fmt.Errorf("injected 1 simulated drift, gate reported %v", drift)
	}
	fmt.Println("bench-check selftest: clean pass on identical records, all 4 injected regressions and the simulated drift caught")
	return nil
}
