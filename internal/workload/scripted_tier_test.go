package workload

import (
	"reflect"
	"testing"

	"repro/internal/php"
	"repro/internal/vm"
)

// aggressiveTier promotes after one 4-request window with at least one
// call — fast enough for a short test run to cross the tier boundary.
func aggressiveTier() php.TierPolicy {
	return php.TierPolicy{WindowRequests: 4, HotCalls: 1, HotWindows: 1, ColdCalls: 0, ColdWindows: 8}
}

// TestPoolConfigureScriptTier drives a scripted pool through enough
// requests for auto promotion and checks the merged snapshot reflects
// bytecode-tier execution, with output identical to an untiered pool.
func TestPoolConfigureScriptTier(t *testing.T) {
	newRun := func(mode php.TierMode) (Result, php.TierSnapshot) {
		p, err := NewPoolSharedSeed(2, vm.Config{}, "phpscript-blog", 1)
		if err != nil {
			t.Fatal(err)
		}
		supported, err := p.ConfigureScriptTier(mode, aggressiveTier())
		if err != nil {
			t.Fatal(err)
		}
		if !supported {
			t.Fatal("phpscript-blog should support script tiering")
		}
		res := p.Run(LoadGenerator{Requests: 48, Warmup: 4}, 0)
		return res, p.TierSnapshot()
	}

	interpRes, interpSnap := newRun(php.TierInterp)
	autoRes, autoSnap := newRun(php.TierAuto)

	if !interpSnap.Enabled || interpSnap.BytecodeCalls != 0 {
		t.Errorf("interp-tier pool should stay on the tree-walker: %+v", interpSnap)
	}
	if !autoSnap.Enabled {
		t.Fatal("auto-tier snapshot should be enabled")
	}
	if autoSnap.Promotions == 0 || autoSnap.BytecodeCalls == 0 {
		t.Errorf("auto tier should promote and serve bytecode calls: %+v", autoSnap)
	}
	if autoSnap.ICSites == 0 || autoSnap.ICHits == 0 {
		t.Errorf("promoted blog script should exercise inline caches: %+v", autoSnap)
	}
	if interpRes.Requests != autoRes.Requests || interpRes.ResponseBytes != autoRes.ResponseBytes {
		t.Errorf("tiering changed served output volume: interp %d/%d bytes, auto %d/%d bytes",
			interpRes.Requests, interpRes.ResponseBytes, autoRes.Requests, autoRes.ResponseBytes)
	}
}

// TestPoolTierPromotionDeterminism runs the same seeded load twice and
// requires the same promotion outcome — the property the CI guard
// checks end-to-end.
func TestPoolTierPromotionDeterminism(t *testing.T) {
	run := func() php.TierSnapshot {
		p, err := NewPoolSharedSeed(2, vm.Config{}, "phpscript-blog", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ConfigureScriptTier(php.TierAuto, aggressiveTier()); err != nil {
			t.Fatal(err)
		}
		p.Run(LoadGenerator{Requests: 40, Warmup: 4}, 0)
		return p.TierSnapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Fns, b.Fns) {
		t.Errorf("per-function tiers differ across identical runs:\n a %v\n b %v", a.Fns, b.Fns)
	}
	if a.Promotions != b.Promotions || a.BytecodeCalls != b.BytecodeCalls {
		t.Errorf("tier counters differ across identical runs:\n a %+v\n b %+v", a, b)
	}
}
