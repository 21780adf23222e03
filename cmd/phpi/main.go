// Command phpi interprets a PHP script on the simulated runtime and
// prints its output, optionally with the simulation cost report — a
// miniature HHVM-with-accelerators in one binary.
//
// Usage:
//
//	phpi [-accel] [-stats] [-tier interp|bytecode] [-requests n] script.php
//	echo '<?php echo strtoupper("hi");' | phpi -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/isa"
	"repro/internal/php"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/vm"
)

func main() {
	accel := flag.Bool("accel", true, "run with the four accelerators")
	stats := flag.Bool("stats", false, "print the simulation cost report after the output")
	topN := flag.Int("profile", 0, "also print the leaf-function profile: headline, CDF, categories and the hottest N rows")
	tier := flag.String("tier", "interp", "execution engine: interp or bytecode (auto is accepted as bytecode)")
	requests := flag.Int("requests", 1, "run the script n times on one engine (only the last run's output prints; the cost report covers every run)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: phpi [-accel] [-stats] [-tier interp|bytecode] [-requests n] script.php  (use - for stdin)")
		os.Exit(2)
	}

	mode, err := php.ParseTierMode(*tier)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phpi:", err)
		os.Exit(2)
	}

	var src []byte
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "phpi:", err)
		os.Exit(1)
	}

	cfg := vm.Config{Mitigations: sim.AllMitigations(), TraceCapacity: -1}
	if *accel {
		cfg.Features = isa.AllAccelerators()
	}
	rt := vm.New(cfg)

	prog, err := php.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "phpi:", err)
		os.Exit(1)
	}
	in := php.New(rt, prog)
	if mode != php.TierInterp {
		if err := in.EnableTier(nil, mode); err != nil {
			fmt.Fprintln(os.Stderr, "phpi:", err)
			os.Exit(1)
		}
	}

	n := *requests
	if n < 1 {
		n = 1
	}
	var out []byte
	for i := 0; i < n; i++ {
		out, err = in.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "phpi:", err)
			os.Exit(1)
		}
	}
	os.Stdout.Write(out)

	if *stats {
		fmt.Fprintf(os.Stderr, "\n--- simulation ---\n%s", rt.Meter().Report())
		if snap := in.TierSnapshot(); snap.Enabled {
			fmt.Fprintf(os.Stderr, "--- tier (%s) ---\nrequests %d  ic hits %d  ic misses %d  type-stable %d  type misses %d\n",
				snap.Mode, snap.Requests, snap.ICHits, snap.ICMisses, snap.TypeStableHits, snap.TypeMisses)
		}
	}
	if *topN > 0 {
		p := profile.FromMeter(rt.Meter())
		fmt.Fprintf(os.Stderr, "\n%s", p.Render(*topN))
	}
}
