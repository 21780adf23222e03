package workload

import (
	"testing"

	"repro/internal/php"
	"repro/internal/vm"
)

// TestPoolConfigureScriptTier serves the same load from a tree-walking
// and a bytecode pool: both snapshots are enabled and count every
// request, only the bytecode one has inline caches, and the served
// output is the same.
func TestPoolConfigureScriptTier(t *testing.T) {
	newRun := func(mode php.TierMode) (Result, php.TierSnapshot) {
		p, err := NewPoolSharedSeed(2, vm.Config{}, "phpscript-blog", 1)
		if err != nil {
			t.Fatal(err)
		}
		supported, err := p.ConfigureScriptTier(mode, php.DefaultTierPolicy())
		if err != nil {
			t.Fatal(err)
		}
		if !supported {
			t.Fatal("phpscript-blog should support script tiering")
		}
		res := p.Run(LoadGenerator{Requests: 48, Warmup: 4}, 0)
		return res, p.Snapshot().Tier
	}

	interpRes, interpSnap := newRun(php.TierInterp)
	bcRes, bcSnap := newRun(php.TierBytecode)

	if !interpSnap.Enabled || interpSnap.Mode != "interp" || interpSnap.ICSites != 0 {
		t.Errorf("interp pool should run the tree-walker: %+v", interpSnap)
	}
	if !bcSnap.Enabled || bcSnap.Mode != "bytecode" {
		t.Fatalf("bytecode pool should report its engine: %+v", bcSnap)
	}
	// 48 measured requests plus 4 warm-up requests on each worker.
	if bcSnap.Requests != interpSnap.Requests || bcSnap.Requests != 56 {
		t.Errorf("both pools should count 56 requests: interp %d, bytecode %d", interpSnap.Requests, bcSnap.Requests)
	}
	if bcSnap.ICSites == 0 || bcSnap.ICHits == 0 {
		t.Errorf("blog script on bytecode should exercise inline caches: %+v", bcSnap)
	}
	if interpRes.Requests != bcRes.Requests || interpRes.ResponseBytes != bcRes.ResponseBytes {
		t.Errorf("engine changed served output volume: interp %d/%d bytes, bytecode %d/%d bytes",
			interpRes.Requests, interpRes.ResponseBytes, bcRes.Requests, bcRes.ResponseBytes)
	}
}
