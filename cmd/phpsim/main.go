// Command phpsim runs one PHP workload through the simulated runtime and
// prints the cost breakdown: per-category cycles, the hottest leaf
// functions, and accelerator statistics.
//
// Usage:
//
//	phpsim [-app wordpress] [-requests 100] [-warmup 50]
//	       [-accel all|none|hash,heap,string,regex] [-mitigations]
//	       [-profile 20]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "wordpress", "workload: wordpress|drupal|mediawiki|specweb-banking|specweb-ecommerce")
	requests := flag.Int("requests", 100, "measured requests")
	warmup := flag.Int("warmup", 50, "warmup requests (discarded)")
	accel := flag.String("accel", "all", "accelerators: all|none|comma list of hash,heap,string,regex")
	mitig := flag.Bool("mitigations", true, "apply the prior-work mitigations (section 3)")
	topN := flag.Int("profile", 20, "print the hottest N leaf functions")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	feats, err := parseFeatures(*accel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := vm.Config{Features: feats, TraceCapacity: -1}
	if *mitig {
		cfg.Mitigations = sim.AllMitigations()
	}
	rt := vm.New(cfg)

	a, err := workload.ByName(*app, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	lg := workload.LoadGenerator{Warmup: *warmup, Requests: *requests, ContextSwitchEvery: 64}
	res := lg.Run(rt, a)

	fmt.Printf("workload: %s  requests: %d  response bytes: %d\n", res.App, res.Requests, res.ResponseBytes)
	fmt.Printf("cycles/request: %.0f   uops/request: %.0f   energy/request: %.2f uJ\n\n",
		res.CyclesPerRequest(), res.Uops/float64(res.Requests), res.EnergyPJ/float64(res.Requests)/1e6)

	fmt.Print(rt.Meter().Report())

	p := profile.FromMeter(rt.Meter())
	fmt.Printf("\nhottest %d leaf functions:\n%s", *topN, p.Render(*topN))

	printAccelStats(rt)
}

func parseFeatures(s string) (isa.Features, error) {
	switch s {
	case "all":
		return isa.AllAccelerators(), nil
	case "none", "":
		return isa.Features{}, nil
	}
	all := isa.AllAccelerators()
	var f isa.Features
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "hash":
			f.HashTable, f.HTConfig = true, all.HTConfig
		case "heap":
			f.HeapManager, f.HMConfig = true, all.HMConfig
		case "string":
			f.StringAccel, f.SAConfig = true, all.SAConfig
		case "regex":
			f.RegexAccel, f.RAConfig = true, all.RAConfig
		default:
			return f, fmt.Errorf("phpsim: unknown accelerator %q", part)
		}
	}
	return f, nil
}

func printAccelStats(rt *vm.Runtime) {
	cpu := rt.CPU()
	if cpu.HT != nil {
		st := cpu.HT.Stats()
		fmt.Printf("\nhash table: gets=%d hit=%.1f%% sets=%d evict(dirty)=%d writebacks=%d rtt-scans=%d\n",
			st.Gets, 100*st.HitRate(), st.Sets, st.EvictDirty, st.Writebacks, st.FreeScans)
	}
	if cpu.HM != nil {
		st := cpu.HM.Stats()
		fmt.Printf("heap manager: mallocs=%d hit=%.1f%% frees=%d overflows=%d prefetches=%d\n",
			st.Mallocs, 100*st.MallocHitRate(), st.Frees, st.Overflows, st.Prefetches)
	}
	if cpu.SA != nil {
		st := cpu.SA.Stats()
		fmt.Printf("string accel: ops=%d blocks=%d bytes=%d bypasses=%d gated-cells=%.1f%%\n",
			st.Ops, st.Blocks, st.Bytes, st.Bypasses,
			100*float64(st.GatedCells)/float64(st.GatedCells+st.ActiveCells+1))
	}
	if cpu.RA != nil {
		st := cpu.RA.Stats()
		fmt.Printf("regex accel: shadows=%d sift-skip=%.1f%% reuse-hits=%d/%d reuse-skip=%dB\n",
			st.ShadowScans,
			100*float64(st.BytesSkippedSift)/float64(st.BytesPresented+1),
			st.ReuseHits, st.ReuseLookups, st.BytesSkippedReuse)
	}
}
