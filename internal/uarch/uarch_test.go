package uarch

import (
	"math"
	"math/rand"
	"testing"
)

// --- TAGE ---

// mispredictRate is the per-branch misprediction rate.
func mispredictRate(t *TAGE) float64 { return float64(t.Mispredicts) / float64(t.Lookups) }

// missRate is the per-access miss rate.
func missRate(c *Cache) float64 { return float64(c.Misses) / float64(c.Accesses) }

func TestTAGELearnsAlwaysTaken(t *testing.T) {
	bp := NewTAGE(DefaultTAGEConfig())
	for i := 0; i < 1000; i++ {
		bp.Predict(0x1000)
		bp.Update(0x1000, true)
	}
	if rate := mispredictRate(bp); rate > 0.02 {
		t.Errorf("always-taken branch mispredict rate %0.3f, want ~0", rate)
	}
}

func TestTAGELearnsAlternatingPattern(t *testing.T) {
	// A T/NT alternation is trivially history-predictable; a bimodal
	// predictor alone would miss half of them.
	bp := NewTAGE(DefaultTAGEConfig())
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		bp.Predict(0x2000)
		bp.Update(0x2000, taken)
	}
	if rate := mispredictRate(bp); rate > 0.10 {
		t.Errorf("alternating pattern mispredict rate %0.3f, want < 0.10", rate)
	}
}

func TestTAGELearnsLongPeriodPattern(t *testing.T) {
	// Period-7 loop branch: needs history, the tagged tables' job.
	bp := NewTAGE(DefaultTAGEConfig())
	mis := 0
	for i := 0; i < 20000; i++ {
		taken := i%7 != 6
		got := bp.Predict(0x3000)
		if got != taken && i > 4000 {
			mis++
		}
		bp.Update(0x3000, taken)
	}
	if rate := float64(mis) / 16000; rate > 0.05 {
		t.Errorf("period-7 mispredict rate after warmup %0.3f, want < 0.05", rate)
	}
}

func TestTAGECannotPredictRandom(t *testing.T) {
	bp := NewTAGE(DefaultTAGEConfig())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		bp.Predict(0x4000)
		bp.Update(0x4000, rng.Intn(2) == 0)
	}
	rate := mispredictRate(bp)
	if rate < 0.4 || rate > 0.6 {
		t.Errorf("random branch mispredict rate %0.3f, want ~0.5", rate)
	}
}

func TestTAGEMPKI(t *testing.T) {
	bp := NewTAGE(DefaultTAGEConfig())
	bp.Mispredicts = 50
	if got := bp.MPKI(10000); got != 5 {
		t.Errorf("MPKI = %v, want 5", got)
	}
	if (&TAGE{}).MPKI(0) != 0 {
		t.Errorf("zero instructions should give zero MPKI")
	}
}

// --- BTB ---

func TestBTBBasicHitMiss(t *testing.T) {
	b := NewBTB(1024, 2)
	if b.Lookup(0x100, 0x500) {
		t.Errorf("cold lookup should miss")
	}
	if !b.Lookup(0x100, 0x500) {
		t.Errorf("second lookup should hit")
	}
	if b.Lookup(0x100, 0x600) {
		t.Errorf("changed target should miss")
	}
	if !b.Lookup(0x100, 0x600) {
		t.Errorf("updated target should hit")
	}
}

func TestBTBCapacityPressure(t *testing.T) {
	small := NewBTB(256, 2)
	large := NewBTB(16384, 2)
	rng := rand.New(rand.NewSource(8))
	sites := make([]uint64, 2000)
	for i := range sites {
		sites[i] = uint64(0x1000 + i*4)
	}
	for i := 0; i < 100000; i++ {
		pc := sites[rng.Intn(len(sites))]
		small.Lookup(pc, pc+64)
		large.Lookup(pc, pc+64)
	}
	if small.HitRate() >= large.HitRate() {
		t.Errorf("larger BTB must have higher hit rate: %0.3f vs %0.3f",
			small.HitRate(), large.HitRate())
	}
	if large.HitRate() < 0.95 {
		t.Errorf("16K-entry BTB should capture a 2K working set: %0.3f", large.HitRate())
	}
}

func TestBTBEntries(t *testing.T) {
	if b := NewBTB(4096, 2); b.sets*b.ways != 4096 {
		t.Errorf("NewBTB(4096, 2) holds %d entries", b.sets*b.ways)
	}
}

// --- Caches ---

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(32<<10, 64, 8, false, nil)
	if c.Access(0x1000) {
		t.Errorf("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Errorf("warm access should hit")
	}
	if !c.Access(0x1004) {
		t.Errorf("same line should hit")
	}
	if missRate(c) != 1.0/3 {
		t.Errorf("miss rate = %v", missRate(c))
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way, 2 sets: lines mapping to set 0 are multiples of 2*64.
	c := NewCache(256, 64, 2, false, nil)
	c.Access(0x0000)
	c.Access(0x0080) // same set, second way
	c.Access(0x0000) // refresh LRU of first
	c.Access(0x0100) // evicts 0x0080
	if !c.Access(0x0000) {
		t.Errorf("recently used line evicted")
	}
	if c.Access(0x0080) {
		t.Errorf("LRU line should have been evicted")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	c := NewCache(32<<10, 64, 8, true, nil)
	c.Access(0x1000) // miss, prefetches 0x1040
	if !c.Access(0x1040) {
		t.Errorf("sequential access should hit via prefetch")
	}
	if c.Prefetches == 0 {
		t.Errorf("prefetch counter not incremented")
	}
}

func TestHierarchyFiltersL2(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	rng := rand.New(rand.NewSource(3))
	// Small instruction working set: L1I captures it, L2 sees few misses.
	for i := 0; i < 200000; i++ {
		h.L1I.Access(uint64(0x400000 + rng.Intn(16<<10)))
	}
	if missRate(h.L1I) > 0.01 {
		t.Errorf("16KB working set should fit 32KB L1I: %0.4f", missRate(h.L1I))
	}
	if h.L2.Accesses > h.L1I.Misses+h.L2.Prefetches+1000 {
		t.Errorf("L2 sees more accesses than L1 misses: %d vs %d", h.L2.Accesses, h.L1I.Misses)
	}
}

// --- Synthesizer + characterization ---

func TestSynthDeterminism(t *testing.T) {
	p := PHPProfile("wordpress")
	count := func() (int64, uint64) {
		s := NewSynth(p, 42)
		var branches int64
		var sum uint64
		s.Run(100000, Hooks{
			OnCondBranch: func(pc uint64, taken bool) { branches++; sum += pc },
		})
		return branches, sum
	}
	b1, s1 := count()
	b2, s2 := count()
	if b1 != b2 || s1 != s2 {
		t.Errorf("synthesizer not deterministic: (%d,%d) vs (%d,%d)", b1, s1, b2, s2)
	}
}

func TestSynthBranchDensity(t *testing.T) {
	for _, tc := range []struct {
		p    Profile
		want float64
	}{
		{PHPProfile("wordpress"), 0.22},
		{SPECProfile(), 0.12},
	} {
		s := NewSynth(tc.p, 7)
		var branches, instrs int64
		instrs = s.Run(300000, Hooks{
			OnCondBranch: func(uint64, bool) { branches++ },
		})
		got := float64(branches) / float64(instrs)
		if math.Abs(got-tc.want) > 0.02 {
			t.Errorf("%s branch density %0.3f, want ~%0.2f", tc.p.Name, got, tc.want)
		}
	}
}

func TestCharacterizePHPBranchMPKINearPaper(t *testing.T) {
	// §2: branch MPKI of 17.26 / 14.48 / 15.14 for the three apps.
	want := map[string]float64{"wordpress": 17.26, "drupal": 14.48, "mediawiki": 15.14}
	for app, target := range want {
		cfg := DefaultCharacterizeConfig()
		cfg.Instructions = 1_500_000
		ch := Characterize(PHPProfile(app), cfg)
		if math.Abs(ch.Stats.BranchMPKI-target) > 4.5 {
			t.Errorf("%s branch MPKI %0.2f, want near %0.2f", app, ch.Stats.BranchMPKI, target)
		}
	}
}

func TestCharacterizeSPECFarMorePredictable(t *testing.T) {
	cfg := DefaultCharacterizeConfig()
	cfg.Instructions = 1_000_000
	php := Characterize(PHPProfile("wordpress"), cfg)
	spec := Characterize(SPECProfile(), cfg)
	if spec.Stats.BranchMPKI >= php.Stats.BranchMPKI/2 {
		t.Errorf("SPEC should be far more predictable: %0.2f vs %0.2f",
			spec.Stats.BranchMPKI, php.Stats.BranchMPKI)
	}
	if spec.Stats.BranchMPKI > 6 {
		t.Errorf("SPEC-like MPKI %0.2f, want near 2.9", spec.Stats.BranchMPKI)
	}
}

func TestSweepBTBMonotonicHitRate(t *testing.T) {
	points := SweepBTB(PHPProfile("wordpress"), []int{4096, 16384, 65536}, []int{32 << 10}, 800_000)
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].BTBHitRate < points[i-1].BTBHitRate {
			t.Errorf("BTB hit rate should grow with entries: %+v", points)
		}
		if points[i].ExecCycles > points[i-1].ExecCycles {
			t.Errorf("exec time should fall with bigger BTB: %+v", points)
		}
	}
}

func TestSweepCoresShape(t *testing.T) {
	// Fig. 2c: in-order -> OoO is a big jump, 2->4 wide helps, 4->8 is
	// nearly flat (<3% in the paper; we allow <6%).
	points := SweepCores(PHPProfile("wordpress"), 800_000)
	if len(points) != 4 {
		t.Fatalf("got %d core points", len(points))
	}
	io2, ooo2, ooo4, ooo8 := points[0].ExecCycles, points[1].ExecCycles, points[2].ExecCycles, points[3].ExecCycles
	if ooo2 >= io2 {
		t.Errorf("OoO should beat in-order: %0.0f vs %0.0f", ooo2, io2)
	}
	if ooo4 >= ooo2 {
		t.Errorf("4-wide should beat 2-wide: %0.0f vs %0.0f", ooo4, ooo2)
	}
	gain := (ooo4 - ooo8) / ooo4
	if gain < 0 || gain > 0.06 {
		t.Errorf("8-wide gain should be tiny: %0.3f", gain)
	}
}

func BenchmarkCharacterize(b *testing.B) {
	p := PHPProfile("wordpress")
	cfg := DefaultCharacterizeConfig()
	cfg.Instructions = 200_000
	for i := 0; i < b.N; i++ {
		Characterize(p, cfg)
	}
}
