// Command figures reproduces every table and figure of the paper's
// evaluation (internal/experiments, one scale, seed 1) and prints them
// as aligned text tables with the paper's numbers beneath.
//
// Usage:
//
//	figures [-only fig14,fig15,...] [-write]
//
// -write (run from the repo root, all figures) also rewrites the
// committed record FIGURES.json and the block of EXPERIMENTS.md that is
// generated from it; `make bench-record` runs it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated figure ids (default all): "+strings.Join(experiments.IDs(), ","))
	write := flag.Bool("write", false, "rewrite FIGURES.json and EXPERIMENTS.md's generated block in the current directory")
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
	rep, err := experiments.Build(only)
	if err != nil {
		return err
	}
	if err := rep.Render(os.Stdout); err != nil || !write {
		return err
	}
	record, err := rep.Marshal()
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
	if err := os.WriteFile("FIGURES.json", record, 0o644); err != nil {
		return err
	}
	return os.WriteFile("EXPERIMENTS.md", md, 0o644)
}
