// Phpscript runs an actual PHP program — the scripted blog page from the
// workload package — through the interpreter on both a software-only and
// a fully accelerated runtime, demonstrating that real script execution
// flows through the paper's accelerators end to end.
package main

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	run := func(feats isa.Features) (*vm.Runtime, []byte) {
		rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations(), TraceCapacity: -1})
		app := workload.NewBlogScript()
		for page := 1; page <= 12; page++ { // warm the hardware structures
			app.ServePage(rt, page)
		}
		rt.Meter().Reset()
		return rt, app.ServePage(rt, 13)
	}

	swRT, swPage := run(isa.Features{})
	hwRT, hwPage := run(isa.AllAccelerators())

	fmt.Printf("PHP blog script rendered %d bytes (software), %d bytes (accelerated)\n",
		len(swPage), len(hwPage))
	same := strings.ReplaceAll(string(swPage), " ", "") == strings.ReplaceAll(string(hwPage), " ", "")
	fmt.Printf("outputs identical modulo sifting whitespace: %v\n\n", same)

	fmt.Println("first 240 bytes of the page:")
	fmt.Printf("%.240s...\n\n", swPage)

	swC, hwC := swRT.Meter().TotalCycles(), hwRT.Meter().TotalCycles()
	fmt.Printf("cycles per request: software %.0f, accelerated %.0f (%.2fx)\n",
		swC, hwC, swC/hwC)
	for _, c := range sim.Categories() {
		s, h := swRT.Meter().CategoryCycles()[c], hwRT.Meter().CategoryCycles()[c]
		if s == 0 {
			continue
		}
		fmt.Printf("  %-10s %10.0f -> %10.0f\n", c, s, h)
	}

	ht := hwRT.CPU().HT.Stats()
	hm := hwRT.CPU().HM.Stats()
	fmt.Printf("\nhash table: %.1f%% GET hit (%d gets, %d sets)\n", 100*ht.HitRate(), ht.Gets, ht.Sets)
	fmt.Printf("heap manager: %.1f%% malloc hit (%d mallocs)\n", 100*hm.MallocHitRate(), hm.Mallocs)
}
