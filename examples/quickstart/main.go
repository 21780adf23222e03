// Quickstart: build an accelerated PHP runtime, serve one request, and
// inspect where the cycles went.
package main

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	// A runtime with all four accelerators (hash table, heap manager,
	// string accelerator, regexp accelerator) and the prior-work
	// mitigations from the paper's Section 3.
	rt := vm.New(vm.Config{
		Features:    isa.AllAccelerators(),
		Mitigations: sim.AllMitigations(),
	})

	// Serve a WordPress-like page: the blog's first page.
	app := workload.NewWordPress(42)
	page := app.ServePage(rt, 1)
	fmt.Printf("rendered %d bytes of HTML\n\n", len(page))
	fmt.Printf("first 160 bytes: %.160s...\n\n", page)

	// The meter attributes every micro-op and accelerator cycle to a leaf
	// function and activity category.
	fmt.Print(rt.Meter().Report())

	p := profile.FromMeter(rt.Meter())
	fmt.Printf("\nleaf-function profile, hottest 8:\n%s", p.Render(8))

	// Accelerator activity for this single request.
	ht := rt.CPU().HT.Stats()
	hm := rt.CPU().HM.Stats()
	fmt.Printf("\nhash table GET hit rate: %.1f%% (%d gets, %d sets)\n",
		100*ht.HitRate(), ht.Gets, ht.Sets)
	fmt.Printf("heap manager malloc hit rate: %.1f%% (%d mallocs)\n",
		100*hm.MallocHitRate(), hm.Mallocs)
}
