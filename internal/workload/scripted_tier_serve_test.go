// An external test package: the scheduler-driven engine test needs
// internal/serve, which imports this one.
package workload_test

import (
	"context"
	"testing"

	"repro/internal/php"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestTierDeterminismGuard is the end-to-end check that the bytecode
// engine's counters are a pure function of the request stream: the same
// seeded Zipf load driven twice through the scheduler at a bytecode
// scripted pool must produce identical request, inline-cache and
// type-feedback counters. The single closed-loop client rotates workers
// FIFO, so any divergence means nondeterminism leaked into the engine —
// the property the benchmark trajectory's scripted scenarios and the
// committed BENCH_<n>.json records rely on.
func TestTierDeterminismGuard(t *testing.T) {
	run := func() php.TierSnapshot {
		pool, err := workload.NewPoolSharedSeed(2, vm.Config{TraceCapacity: 1024}, "phpscript-blog", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.ConfigureScriptTier(php.TierBytecode, php.DefaultTierPolicy()); err != nil {
			t.Fatal(err)
		}
		pool.Run(workload.LoadGenerator{Warmup: 40}, 0)
		s := serve.NewScheduler(pool, serve.Config{QueueDepth: 64})
		keys, err := workload.NewZipfKeys(1, 1.0, 512)
		if err != nil {
			t.Fatal(err)
		}
		serve.RunLoad(context.Background(), s, serve.LoadOptions{
			Requests: 120,
			Clients:  1,
			PageKey:  keys.Next,
		})
		return pool.Snapshot().Tier
	}

	a, b := run(), run()
	// 120 measured requests plus 40 warm-up requests on each worker.
	if a.Requests != 200 || a.ICHits == 0 || a.TypeStableHits == 0 {
		t.Fatalf("load should run 200 requests through the inline caches and type feedback: %+v", a)
	}
	if a != b {
		t.Errorf("engine counters diverge across identical seeded runs:\n a %+v\n b %+v", a, b)
	}
}
