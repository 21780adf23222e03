// Command bench_compare is the simulated-clock gate `make bench-check`
// (a step of `make ci`) runs, over both committed records. It loads the
// latest BENCH_<n>.json, reruns the pinned benchrec matrix fresh at the
// record's seed, and reports one line per difference when any
// deterministic field — pinned configuration, simulated cycles, energy,
// category cycles, served/shed/cache counts, tier counters — differs at
// all, or allocs/op rose past its absolute slack (+0.5 direct, +0.1
// serve). Then it loads FIGURES.json, rebuilds every figure of the
// paper's evaluation (internal/experiments) and reports one
// `figure[row].metric base -> fresh` line per value that differs at all.
// Any line makes it exit nonzero. It compares no host time; that is
// benchmark/'s job.
//
// Usage:
//
//	go run ./scripts [-dir .] [-against BENCH_3.json] [-fresh rec.json]
//
// -against pins the committed side to a specific record instead of the
// latest. -fresh diffs a pre-recorded file instead of running anything
// (regression triage: compare any two committed BENCH records; for the
// figures, `git diff` of FIGURES.json is that view).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/benchrec"
	"repro/internal/experiments"
)

func main() {
	dir := flag.String("dir", ".", "directory holding the committed BENCH_<n>.json records and FIGURES.json")
	against := flag.String("against", "", "committed record to compare against (default: latest BENCH_<n>.json in -dir)")
	freshPath := flag.String("fresh", "", "use this record file as the fresh side instead of running the matrix")
	flag.Parse()

	if err := run(*dir, *against, *freshPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench-check:", err)
		os.Exit(1)
	}
}

func run(dir, against, freshPath string) error {
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
	} else {
		fmt.Printf("comparing against %s (seed %d); running fresh matrix...\n", against, base.Seed)
		fresh, err = benchrec.RunMatrix(benchrec.Options{Seed: base.Seed})
	}
	if err != nil {
		return err
	}

	drift := benchrec.SimDrift(base, fresh)
	clean := fmt.Sprintf("%d scenarios identical to %s, allocs/op within slack", len(base.Scenarios), against)
	if freshPath == "" {
		figures := filepath.Join(dir, "FIGURES.json")
		committed, err := experiments.Load(figures)
		if err != nil {
			return err
		}
		fmt.Printf("comparing against %s; rebuilding every figure...\n", figures)
		rebuilt, err := experiments.Build(nil)
		if err != nil {
			return err
		}
		drift = append(drift, experiments.Drift(committed, rebuilt)...)
		clean += fmt.Sprintf("; %d figure values identical to %s", len(committed), figures)
	}
	for _, d := range drift {
		fmt.Println("drifted:", d)
	}
	if len(drift) > 0 {
		return fmt.Errorf("%d value(s) drifted; fix the cause, or `make bench-record` and commit the records with the reason", len(drift))
	}
	fmt.Println("bench-check:", clean)
	return nil
}
