// An external test package: the scheduler-driven tier test needs
// internal/serve, which imports this one.
package workload_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/php"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestTierDeterminismGuard is the end-to-end check that tier
// promotion is a pure function of the request stream: the same seeded
// Zipf load driven twice through the scheduler at a tiered scripted pool,
// under the default policy, must produce the identical promoted set and
// identical tier counters. Promotion windows advance on request
// counts, not wall clock, and the single closed-loop client rotates
// workers FIFO, so any divergence means nondeterminism leaked into the
// tier policy — the property the benchmark trajectory's scripted
// scenarios and the committed BENCH_<n>.json records rely on.
func TestTierDeterminismGuard(t *testing.T) {
	run := func() php.TierSnapshot {
		pool, err := workload.NewPoolSharedSeed(2, vm.Config{TraceCapacity: 1024}, "phpscript-blog", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.ConfigureScriptTier(php.TierAuto, php.DefaultTierPolicy()); err != nil {
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
		return pool.TierSnapshot()
	}

	a, b := run(), run()
	if a.Promotions == 0 || a.BytecodeCalls == 0 {
		t.Fatalf("load never promoted — it is not exercising the tier: %+v", a)
	}
	if !reflect.DeepEqual(a.Fns, b.Fns) {
		t.Errorf("per-function tiers diverge across identical seeded runs:\n a %v\n b %v", a.Fns, b.Fns)
	}
	if a.Requests != b.Requests || a.Promotions != b.Promotions || a.Demotions != b.Demotions ||
		a.BytecodeCalls != b.BytecodeCalls || a.InterpCalls != b.InterpCalls ||
		a.ICHits != b.ICHits || a.ICMisses != b.ICMisses ||
		a.TypeStableHits != b.TypeStableHits || a.TypeMisses != b.TypeMisses {
		t.Errorf("tier counters diverge across identical seeded runs:\n a %+v\n b %+v", a, b)
	}
}
