// Command figures reproduces every table and figure of the paper's
// evaluation (internal/experiments, one scale, seed 1) and prints them
// as aligned text tables with the paper's numbers beneath.
//
// Usage:
//
//	figures [-only fig14,fig15,...] [-write]
//
// -write (run from the repo root, all figures) writes every committed
// simulated-clock record, and is what `make bench-record` runs: it
// first runs the pinned benchrec scenario matrix at its default seed and
// appends the result as the next BENCH_<n>.json (the trajectory is
// append-only), then rewrites FIGURES.json and the block of
// EXPERIMENTS.md that is generated from it. The records hold no host
// time; `sh benchmark/run.sh` measures that.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchrec"
	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated figure ids (default all): "+strings.Join(experiments.IDs(), ","))
	write := flag.Bool("write", false, "append the next BENCH_<n>.json and rewrite FIGURES.json and EXPERIMENTS.md's generated block in the current directory")
	flag.Parse()
	if err := run(strings.FieldsFunc(*only, func(r rune) bool { return r == ',' || r == ' ' }), *write); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(only []string, write bool) error {
	if write && len(only) > 0 {
		return fmt.Errorf("-write records every figure; drop -only")
	}
	// The matrix runs first, in a fresh process, as `make bench-check`
	// reruns it: its allocs/op are then not measured on a heap the
	// figures have grown.
	var rec benchrec.Record
	if write {
		latest, err := benchrec.LatestSeq(".")
		if err != nil {
			return err
		}
		if rec, err = benchrec.RunMatrix(benchrec.Options{}); err != nil {
			return err
		}
		rec.Seq = latest + 1
	}
	rep, err := experiments.Build(only)
	if err != nil {
		return err
	}
	if err := rep.Render(os.Stdout); err != nil || !write {
		return err
	}
	figures, err := rep.Marshal()
	if err != nil {
		return err
	}
	md, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return err
	}
	if md, err = rep.Doc(md); err != nil {
		return err
	}
	path, err := benchrec.Write(".", rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile("FIGURES.json", figures, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile("EXPERIMENTS.md", md, 0o644); err != nil {
		return err
	}
	for _, sc := range rec.Scenarios {
		fmt.Printf("%-20s %10.0f sim cycles/req  hit ratio %.3f  %8.2f allocs/op\n",
			sc.Name, sc.SimCyclesPerReq, sc.CacheHitRatio, sc.AllocsPerOp)
	}
	fmt.Printf("wrote %s (seed %d), FIGURES.json, EXPERIMENTS.md\n", path, rec.Seed)
	return nil
}
