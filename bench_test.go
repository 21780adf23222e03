// Package repro's top-level benchmarks run the ablation studies
// DESIGN.md calls out, each reporting its headline metric through
// b.ReportMetric, and the per-accelerator host-cost benchmarks; the
// per-layer allocation budgets, which every `go test` runs, live here
// too. The paper's figures are not benchmarks: internal/experiments
// builds them once, at one scale, and FIGURES.json records them.
package repro

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core/hashtable"
	"repro/internal/core/heapmgr"
	"repro/internal/core/regexaccel"
	"repro/internal/core/straccel"
	"repro/internal/hashmap"
	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// --- Ablations (§4 design-consideration studies from DESIGN.md) ---

// BenchmarkAblationProbeWindow sweeps the hash table's parallel probe
// window (§4.2: 4 consecutive entries accessed in parallel).
func BenchmarkAblationProbeWindow(b *testing.B) {
	for _, window := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				feats := isa.AllAccelerators()
				feats.HTConfig.ProbeWindow = window
				rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations(), TraceCapacity: -1})
				app, _ := workload.ByName("wordpress", 1)
				workload.LoadGenerator{Warmup: 20, Requests: 30, ContextSwitchEvery: 64}.Run(rt, app)
				b.ReportMetric(100*rt.CPU().HT.Stats().HitRate(), "get-hit-%")
			}
		})
	}
}

// BenchmarkAblationKeyWidth sweeps the widest key stored inline (§4.2:
// 24 bytes captures ~95% of keys).
func BenchmarkAblationKeyWidth(b *testing.B) {
	for _, width := range []int{8, 16, 24, 48} {
		b.Run(fmt.Sprintf("keybytes-%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				feats := isa.AllAccelerators()
				feats.HTConfig.MaxKeyBytes = width
				rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations(), TraceCapacity: -1})
				app, _ := workload.ByName("wordpress", 1)
				workload.LoadGenerator{Warmup: 20, Requests: 30, ContextSwitchEvery: 64}.Run(rt, app)
				st := rt.CPU().HT.Stats()
				total := st.Gets + st.Sets + st.Bypasses
				b.ReportMetric(100*float64(st.Bypasses)/float64(total+1), "bypass-%")
			}
		})
	}
}

// BenchmarkAblationHeapListEntries sweeps the hardware free-list depth
// (§4.3: 32 entries give the prefetcher room to hide latency).
func BenchmarkAblationHeapListEntries(b *testing.B) {
	for _, entries := range []int{4, 8, 32, 128} {
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				feats := isa.AllAccelerators()
				feats.HMConfig.ListEntries = entries
				if feats.HMConfig.PrefetchLow > entries {
					feats.HMConfig.PrefetchLow = entries / 2
				}
				rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations(), TraceCapacity: -1})
				app, _ := workload.ByName("wordpress", 1)
				workload.LoadGenerator{Warmup: 20, Requests: 30, ContextSwitchEvery: 64}.Run(rt, app)
				b.ReportMetric(100*rt.CPU().HM.Stats().MallocHitRate(), "malloc-hit-%")
			}
		})
	}
}

// BenchmarkAblationStringBlockWidth sweeps the matching matrix width
// (§4.4: 64 bytes per pass versus prior single-byte designs).
func BenchmarkAblationStringBlockWidth(b *testing.B) {
	for _, width := range []int{1, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("block-%d", width), func(b *testing.B) {
			model := sim.DefaultCostModel()
			model.StrBlockBytes = width
			for i := 0; i < b.N; i++ {
				feats := isa.AllAccelerators()
				feats.SAConfig.BlockBytes = width
				rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations(), Model: model, TraceCapacity: -1})
				app, _ := workload.ByName("wordpress", 1)
				res := workload.LoadGenerator{Warmup: 20, Requests: 30, ContextSwitchEvery: 64}.Run(rt, app)
				b.ReportMetric(res.CyclesPerRequest(), "cycles/req")
			}
		})
	}
}

// BenchmarkAblationSegSize sweeps the content sifting segment granularity
// (§4.5).
func BenchmarkAblationSegSize(b *testing.B) {
	for _, seg := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("seg-%d", seg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				feats := isa.AllAccelerators()
				feats.RAConfig.SegSize = seg
				rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations(), TraceCapacity: -1})
				app, _ := workload.ByName("wordpress", 1)
				workload.LoadGenerator{Warmup: 20, Requests: 30, ContextSwitchEvery: 64}.Run(rt, app)
				st := rt.CPU().RA.Stats()
				b.ReportMetric(100*float64(st.BytesSkippedSift)/float64(st.BytesPresented+1), "sift-skip-%")
			}
		})
	}
}

// BenchmarkAblationSiftVsReuse isolates the two regexp techniques.
func BenchmarkAblationSiftVsReuse(b *testing.B) {
	run := func(b *testing.B, segSize, reuseEntries int) {
		for i := 0; i < b.N; i++ {
			feats := isa.AllAccelerators()
			feats.RAConfig.SegSize = segSize
			feats.RAConfig.ReuseEntries = reuseEntries
			rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations(), TraceCapacity: -1})
			app, _ := workload.ByName("wordpress", 1)
			res := workload.LoadGenerator{Warmup: 20, Requests: 30, ContextSwitchEvery: 64}.Run(rt, app)
			b.ReportMetric(res.CyclesPerRequest(), "cycles/req")
		}
	}
	b.Run("both", func(b *testing.B) { run(b, 32, 32) })
	b.Run("reuse-only-1seg", func(b *testing.B) { run(b, 1<<20, 32) }) // giant segments: sifting off
	b.Run("sift-only-1entry", func(b *testing.B) { run(b, 32, 1) })
}

// BenchmarkScriptedPHP runs the real PHP blog script through the
// interpreter on software vs accelerated runtimes.
func BenchmarkScriptedPHP(b *testing.B) {
	run := func(b *testing.B, feats isa.Features) {
		rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations(), TraceCapacity: -1})
		app := workload.NewBlogScript()
		for i := 0; i < 10; i++ {
			app.ServeRequest(rt)
		}
		rt.Meter().Reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			app.ServeRequest(rt)
		}
		b.ReportMetric(rt.Meter().TotalCycles()/float64(b.N), "simcycles/req")
	}
	b.Run("software", func(b *testing.B) { run(b, isa.Features{}) })
	b.Run("accelerated", func(b *testing.B) { run(b, isa.AllAccelerators()) })
}

// --- Raw accelerator micro-benchmarks ---

func BenchmarkAccelHashTableGet(b *testing.B) {
	ht := hashtable.New(hashtable.DefaultConfig())
	rt := vm.New(vm.Config{TraceCapacity: -1})
	m := rt.CPU().NewMap()
	ht.Set(m, hashmap.StrKey("key"), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht.Get(m, hashmap.StrKey("key"))
	}
}

func BenchmarkAccelHeapManager(b *testing.B) {
	hm := heapmgr.New(heapmgr.DefaultConfig(), heap.NewAllocator(nil, 0))
	for i := 0; i < b.N; i++ {
		blk, _ := hm.Malloc(64)
		hm.Free(blk)
	}
}

func BenchmarkAccelStringFind(b *testing.B) {
	sa := straccel.New(straccel.DefaultConfig())
	subject := make([]byte, 4096)
	for i := range subject {
		subject[i] = byte('a' + i%26)
	}
	b.SetBytes(int64(len(subject)))
	for i := 0; i < b.N; i++ {
		sa.Find(subject, []byte("needle"))
	}
}

func BenchmarkAccelRegexSift(b *testing.B) {
	ra := regexaccel.New(regexaccel.DefaultConfig())
	rt := vm.New(vm.Config{TraceCapacity: -1})
	re := rt.MustRegex("bench", `"`)
	sieve := rt.MustRegex("bench", `<`)
	content := make([]byte, 8192)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	content[4096] = '"'
	_, hv := ra.Sieve(sieve, content, nil)
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ra.Shadow(re, content, hv)
	}
}

// --- Per-layer allocation budgets ---

// allocGuardVMConfig is the accelerated serving configuration the
// allocation guards measure under — the same shape benchrec records.
func allocGuardVMConfig() vm.Config {
	return vm.Config{Mitigations: sim.AllMitigations(), Features: isa.AllAccelerators(), TraceCapacity: 4096}
}

// TestMeterChargeAllocGuard pins the meter's steady state: once every
// leaf name has its row, a charge — memo hit or, for a name rebuilt by
// its caller, index lookup — touches the Go heap zero times. The names
// are a WordPress render's own (~195 rows), charged round-robin the way
// the benchmark's sim.charge_ns row does.
func TestMeterChargeAllocGuard(t *testing.T) {
	pool, err := workload.NewPool(1, allocGuardVMConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Run(workload.LoadGenerator{Requests: 20}, 0)
	fns := pool.MergedMeter().Functions()
	mt := sim.NewMeter(sim.DefaultCostModel())
	rebuilt := string([]byte(fns[0].Name)) // same content, another address
	charge := func() {
		for _, f := range fns {
			mt.AddUops(f.Name, f.Category, 12)
			mt.AddAccel(f.Name, f.Category, sim.AccelString, 3)
		}
		mt.AddUops(rebuilt, fns[0].Category, 12)
	}
	charge()
	if allocs := testing.AllocsPerRun(100, charge); allocs > 0 {
		t.Errorf("steady-state charges of %d names allocate %.2f times, want 0", len(fns), allocs)
	}
	if got := len(mt.Functions()); got != len(fns) {
		t.Errorf("%d rows for %d names", got, len(fns))
	}
}

// TestRenderBufferAllocGuard bounds a steady-state uncached render —
// the full page through the pooled output buffer, request arena, and
// recycled VM structures. Measured ~45 allocs/request on the
// accelerated WordPress page (down from ~1750 before the arena
// refactor); the budget of 120 leaves headroom for small drift while
// still catching any layer losing its reuse (each regression class —
// boxing, chain rebuild, map churn — costs hundreds per request).
func TestRenderBufferAllocGuard(t *testing.T) {
	pool, err := workload.NewPool(1, allocGuardVMConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Run(workload.LoadGenerator{Warmup: 100}, 0)
	// No collection while counting: one empties the sync.Pools mid-run
	// and moves the logged number in its second decimal.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const requests = 200
	allocs := testing.AllocsPerRun(1, func() {
		pool.Run(workload.LoadGenerator{Requests: requests}, 0)
	}) / requests
	t.Logf("steady-state render: %.2f allocs/request", allocs)
	if allocs > 120 {
		t.Errorf("steady-state render allocates %.2f times/request, budget 120", allocs)
	}
}

// TestCachedHitAllocGuard bounds the cached-hit serve path: admission,
// cache lookup, and the read-only entry return, never touching a
// worker. Measured 4 allocs/hit — the per-request context.WithTimeout
// machinery — so the budget of 10 catches any reintroduced per-hit
// copying or key/stat churn.
func TestCachedHitAllocGuard(t *testing.T) {
	pool, err := workload.NewPoolSharedSeed(1, allocGuardVMConfig(), "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.Run(workload.LoadGenerator{Warmup: 50}, 0)
	s := serve.NewScheduler(pool, serve.Config{QueueDepth: 8, Timeout: 30 * time.Second})
	defer s.Drain(context.Background())
	c := cache.New(cache.Config{Capacity: 16})
	render := func(w *workload.Worker) ([]byte, error) {
		body, _, err := w.ServePageSpanCtx(context.Background(), 7, false)
		return body, err
	}
	if _, out, _, err := s.DoCached(context.Background(), c, "page:7", render); err != nil || out != cache.Miss {
		t.Fatalf("prime render: outcome %v err %v", out, err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, out, _, err := s.DoCached(context.Background(), c, "page:7", render); err != nil || out != cache.Hit {
			t.Fatalf("expected hit: outcome %v err %v", out, err)
		}
	})
	t.Logf("cached hit: %.2f allocs", allocs)
	if allocs > 10 {
		t.Errorf("cached hit allocates %.2f times, budget 10", allocs)
	}
}
