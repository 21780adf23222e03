package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// liveBlocks counts the allocator's live blocks: slab segments and huge
// blocks.
func liveBlocks(a *Allocator) int {
	n := len(a.huge)
	for _, l := range a.stats.LiveByClass {
		n += int(l)
	}
	return n
}

type recObs struct {
	allocs, frees, refills, huges int
}

func (r *recObs) OnAlloc(int)       { r.allocs++ }
func (r *recObs) OnFree(int)        { r.frees++ }
func (r *recObs) OnRefill(int, int) { r.refills++ }
func (r *recObs) OnHuge(int)        { r.huges++ }

func TestClassFor(t *testing.T) {
	cases := []struct {
		size, class int
	}{
		{0, 0}, {1, 0}, {16, 0}, {17, 1}, {32, 1}, {33, 2},
		{128, 7}, {129, 8}, {192, 8}, {4096, 15}, {4097, -1}, {1 << 20, -1},
	}
	for _, c := range cases {
		if got := ClassFor(c.size); got != c.class {
			t.Errorf("ClassFor(%d) = %d, want %d", c.size, got, c.class)
		}
	}
}

func TestClassSizesCoverHardwareRange(t *testing.T) {
	if NumSmallClasses != 8 {
		t.Fatalf("the paper's heap manager uses 8 slabs")
	}
	for c := 0; c < NumSmallClasses; c++ {
		if ClassSize(c) > MaxSmallSize {
			t.Errorf("class %d size %d exceeds hardware max %d", c, ClassSize(c), MaxSmallSize)
		}
	}
	if ClassSize(NumSmallClasses-1) != MaxSmallSize {
		t.Errorf("largest small class should be exactly %dB", MaxSmallSize)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := NewAllocator(nil, 0)
	b := a.Alloc(24)
	if b.Class != 1 || b.Size != 24 {
		t.Errorf("Alloc(24) = %+v", b)
	}
	if n := liveBlocks(a); n != 1 {
		t.Errorf("%d live blocks, want 1", n)
	}
	a.Free(b)
	if n := liveBlocks(a); n != 0 {
		t.Errorf("%d live blocks after free", n)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := NewAllocator(nil, 0)
	b := a.Alloc(16)
	a.Free(b)
	defer func() {
		if recover() == nil {
			t.Errorf("double free should panic")
		}
	}()
	a.Free(b)
}

func TestWrongClassFreePanics(t *testing.T) {
	a := NewAllocator(nil, 0)
	b := a.Alloc(16)
	b.Class = 3
	defer func() {
		if recover() == nil {
			t.Errorf("wrong-class free should panic")
		}
	}()
	a.Free(b)
}

func TestMemoryReuse(t *testing.T) {
	// The paper's key observation: these workloads recycle small blocks, so
	// a freed address must be handed out again (LIFO) for the same class.
	a := NewAllocator(nil, 0)
	b1 := a.Alloc(64)
	a.Free(b1)
	b2 := a.Alloc(64)
	if b1.Addr != b2.Addr {
		t.Errorf("freed block not reused: %#x then %#x", b1.Addr, b2.Addr)
	}
}

func TestNoOverlapAcrossClasses(t *testing.T) {
	a := NewAllocator(nil, 0)
	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		b := a.Alloc(16 + (i%8)*16)
		if seen[b.Addr] {
			t.Fatalf("address %#x handed out twice", b.Addr)
		}
		seen[b.Addr] = true
	}
}

func TestHugeAllocations(t *testing.T) {
	obs := &recObs{}
	a := NewAllocator(obs, 0)
	b := a.Alloc(1 << 16)
	if b.Class != -1 {
		t.Errorf("huge block class = %d, want -1", b.Class)
	}
	if obs.huges != 1 {
		t.Errorf("huge observer count = %d", obs.huges)
	}
	a.Free(b)
	if liveBlocks(a) != 0 {
		t.Errorf("huge block not released")
	}
}

func TestRefillObserved(t *testing.T) {
	obs := &recObs{}
	a := NewAllocator(obs, 0)
	a.Alloc(16)
	if obs.refills != 1 {
		t.Errorf("first alloc should trigger one refill, got %d", obs.refills)
	}
	// A chunk has 64 segments; 64 allocations need no second refill.
	for i := 0; i < 63; i++ {
		a.Alloc(16)
	}
	if obs.refills != 1 {
		t.Errorf("64 allocs should fit one chunk, refills = %d", obs.refills)
	}
	a.Alloc(16)
	if obs.refills != 2 {
		t.Errorf("65th alloc should refill, refills = %d", obs.refills)
	}
}

func TestPopPushFree(t *testing.T) {
	a := NewAllocator(nil, 0)
	addrs := a.PopFree(2, 8, nil)
	if len(addrs) != 8 {
		t.Fatalf("PopFree returned %d addrs", len(addrs))
	}
	dedup := map[uint64]bool{}
	for _, ad := range addrs {
		if dedup[ad] {
			t.Fatalf("PopFree returned duplicate %#x", ad)
		}
		dedup[ad] = true
	}
	before := len(a.free[2])
	a.PushFree(2, addrs)
	if len(a.free[2]) != before+8 {
		t.Errorf("PushFree did not grow free list")
	}
}

func TestMarkLiveMarkDead(t *testing.T) {
	a := NewAllocator(nil, 0)
	addrs := a.PopFree(0, 1, nil)
	a.MarkLive(addrs[0], 0)
	if liveBlocks(a) != 1 {
		t.Errorf("MarkLive not reflected")
	}
	a.MarkDead(addrs[0], 0)
	if liveBlocks(a) != 0 {
		t.Errorf("MarkDead not reflected")
	}
}

func TestMarkLiveDoublePanics(t *testing.T) {
	a := NewAllocator(nil, 0)
	addrs := a.PopFree(0, 1, nil)
	a.MarkLive(addrs[0], 0)
	defer func() {
		if recover() == nil {
			t.Errorf("double MarkLive should panic")
		}
	}()
	a.MarkLive(addrs[0], 0)
}

func TestStatsAndCumulativeFraction(t *testing.T) {
	a := NewAllocator(nil, 0)
	for i := 0; i < 90; i++ {
		a.Alloc(16) // class 0
	}
	for i := 0; i < 10; i++ {
		a.Alloc(256) // class 9
	}
	st := a.stats
	if st.AllocsByClass[0] != 90 || st.AllocsByClass[9] != 10 {
		t.Errorf("alloc counts wrong: %v", st.AllocsByClass)
	}
	frac := a.CumulativeSmallFraction()
	if frac[0] != 0.9 {
		t.Errorf("cumulative fraction at class 0 = %v, want 0.9", frac[0])
	}
	if frac[len(frac)-1] != 1.0 {
		t.Errorf("cumulative fraction must end at 1.0: %v", frac)
	}
	// Monotonic non-decreasing.
	for i := 1; i < len(frac); i++ {
		if frac[i] < frac[i-1] {
			t.Errorf("cumulative fraction decreasing at %d: %v", i, frac)
		}
	}
}

func TestTimelineSampling(t *testing.T) {
	a := NewAllocator(nil, 10)
	var blocks []Block
	for i := 0; i < 100; i++ {
		blocks = append(blocks, a.Alloc(32))
	}
	for _, b := range blocks {
		a.Free(b)
	}
	tl := a.Timeline()
	if len(tl) != 20 {
		t.Fatalf("timeline has %d samples, want 20", len(tl))
	}
	// Live bytes in the 32B band must rise then fall back to zero.
	if tl[9].Bands[0] <= tl[0].Bands[0] {
		t.Errorf("live bytes should grow during allocation phase: %v vs %v", tl[9], tl[0])
	}
	last := tl[len(tl)-1]
	if last.Bands[0] != 0 {
		t.Errorf("all freed: final live bytes = %d, want 0", last.Bands[0])
	}
}

// TestAllocatorIntegrityProperty runs random alloc/free sequences and
// verifies that live accounting stays consistent and no address is ever
// handed out twice concurrently.
func TestAllocatorIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(nil, 0)
		live := map[uint64]Block{}
		for step := 0; step < 500; step++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				size := 1 + rng.Intn(200)
				b := a.Alloc(size)
				if _, dup := live[b.Addr]; dup {
					return false
				}
				live[b.Addr] = b
			} else {
				for addr, b := range live {
					a.Free(b)
					delete(live, addr)
					break
				}
			}
			if liveBlocks(a) != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := NewAllocator(nil, 0)
	for i := 0; i < b.N; i++ {
		blk := a.Alloc(64)
		a.Free(blk)
	}
}
