package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func fillConst(val string, calls *int64) func() ([]byte, error) {
	return func() ([]byte, error) {
		if calls != nil {
			atomic.AddInt64(calls, 1)
		}
		return []byte(val), nil
	}
}

func TestHitMissSequence(t *testing.T) {
	c := New(Config{Capacity: 8})
	ctx := context.Background()
	var calls int64

	v, out, err := c.GetOrFill(ctx, "k", fillConst("body", &calls))
	if err != nil || out != Miss || string(v) != "body" {
		t.Fatalf("first lookup = %q, %v, %v; want body, Miss, nil", v, out, err)
	}
	v, out, err = c.GetOrFill(ctx, "k", fillConst("other", &calls))
	if err != nil || out != Hit || string(v) != "body" {
		t.Fatalf("second lookup = %q, %v, %v; want cached body, Hit, nil", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("fill ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 4 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry, 4 bytes", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard so the capacity bound is exact and recency is global.
	c := New(Config{Capacity: 2, Shards: 1})
	ctx := context.Background()

	c.GetOrFill(ctx, "a", fillConst("A", nil))
	c.GetOrFill(ctx, "b", fillConst("B", nil))
	c.GetOrFill(ctx, "a", fillConst("A", nil)) // touch a: b is now LRU
	c.GetOrFill(ctx, "c", fillConst("C", nil)) // evicts b

	if _, out, _ := c.GetOrFill(ctx, "a", fillConst("A", nil)); out != Hit {
		t.Errorf("a should have survived eviction, got %v", out)
	}
	if _, out, _ := c.GetOrFill(ctx, "b", fillConst("B", nil)); out != Miss {
		t.Errorf("b should have been evicted, got %v", out)
	}
	s := c.Stats()
	if s.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want capacity bound 2", s.Entries)
	}
}

func TestCoalescingSingleFill(t *testing.T) {
	c := New(Config{Capacity: 8})
	const waiters = 16
	var calls int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters+1)
	vals := make([][]byte, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], outcomes[0], _ = c.GetOrFill(context.Background(), "k", func() ([]byte, error) {
			atomic.AddInt64(&calls, 1)
			close(leaderIn)
			<-release
			return []byte("rendered"), nil
		})
	}()
	<-leaderIn // leader is inside fill; everyone else must coalesce
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], outcomes[i], _ = c.GetOrFill(context.Background(), "k", func() ([]byte, error) {
				atomic.AddInt64(&calls, 1)
				return []byte("duplicate"), nil
			})
		}(i)
	}
	// Give the waiters a moment to reach the flight wait, then let the
	// leader finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fill ran %d times, want exactly 1 (coalescing)", calls)
	}
	if outcomes[0] != Miss {
		t.Errorf("leader outcome = %v, want Miss", outcomes[0])
	}
	for i := 1; i <= waiters; i++ {
		if string(vals[i]) != "rendered" {
			t.Errorf("waiter %d got %q, want leader's render", i, vals[i])
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != int64(waiters) {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", s, waiters)
	}
}

func TestCoalescedWaiterHonorsContext(t *testing.T) {
	c := New(Config{Capacity: 8})
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go c.GetOrFill(context.Background(), "k", func() ([]byte, error) {
		close(leaderIn)
		<-release
		return []byte("v"), nil
	})
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrFill(ctx, "k", fillConst("v", nil))
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(release)
}

func TestFillErrorNotCachedUnlessAsked(t *testing.T) {
	c := New(Config{Capacity: 8})
	ctx := context.Background()
	boom := errors.New("render failed")
	var calls int64

	_, out, err := c.GetOrFill(ctx, "k", func() ([]byte, error) {
		atomic.AddInt64(&calls, 1)
		return nil, boom
	})
	if out != Miss || !errors.Is(err, boom) {
		t.Fatalf("failed fill = %v, %v; want Miss, boom", out, err)
	}
	// The failure is not stored: the next lookup renders again and can
	// succeed.
	v, out, err := c.GetOrFill(ctx, "k", fillConst("ok", &calls))
	if err != nil || out != Miss || string(v) != "ok" {
		t.Fatalf("retry after failure = %q, %v, %v; want ok, Miss, nil", v, out, err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2", calls)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want only the successful fill", s.Entries)
	}
}

func TestMeterChargesFixedLookupCost(t *testing.T) {
	c := New(Config{Capacity: 8})
	ctx := context.Background()
	c.GetOrFill(ctx, "k", fillConst("v", nil)) // miss
	c.GetOrFill(ctx, "k", fillConst("v", nil)) // hit
	c.GetOrFill(ctx, "k", fillConst("v", nil)) // hit

	dst := sim.NewMeter(sim.DefaultCostModel())
	c.MergeMeter(dst)
	vec := dst.CategoryCyclesVec()
	want := 3 * c.lookupCycles
	if got := vec[sim.CatHash]; !closeEnough(got, want) {
		t.Errorf("hash-category cycles = %g, want %g (3 lookups)", got, want)
	}
	if got := vec.Total(); !closeEnough(got, want) {
		t.Errorf("total cycles = %g, want lookups only %g", got, want)
	}
	if lv := c.LookupCostVec(); !closeEnough(lv.Total(), c.lookupCycles) || !closeEnough(lv[sim.CatHash], c.lookupCycles) {
		t.Errorf("LookupCostVec = %v, want all cycles in CatHash", lv)
	}
}

func TestShardRounding(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{}, DefaultShards},
		{Config{Shards: 3}, 4},
		{Config{Shards: 16}, 16},
		{Config{Capacity: 4, Shards: 64}, 4}, // capped to capacity
	}
	for _, tc := range cases {
		if got := New(tc.cfg).Stats().Shards; got != tc.want {
			t.Errorf("New(%+v).Stats().Shards = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{Hit: "hit", Miss: "miss", Coalesced: "coalesced", Bypass: "bypass", Outcome(99): "unknown"} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	// Race-detector workout: many goroutines over a keyspace larger than
	// capacity so hits, misses, evictions, and coalescing all interleave.
	c := New(Config{Capacity: 32, Shards: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("page-%d", (g*7+i)%64)
				v, _, err := c.GetOrFill(ctx, key, fillConst(key, nil))
				if err != nil || string(v) != key {
					t.Errorf("GetOrFill(%s) = %q, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Lookups() != 8*400 {
		t.Fatalf("lookups = %d, want %d", s.Lookups(), 8*400)
	}
	if s.Entries > 32 {
		t.Fatalf("entries = %d, exceeds capacity 32", s.Entries)
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-6
}

// TestFillOwnershipTransfer pins the ownership contract: a successful
// fill's slice transfers to the cache, and every later hit returns that
// very slice (read-only) — no per-hit copy. The transfer is observable
// as pointer identity between the stored fill and the hit.
func TestFillOwnershipTransfer(t *testing.T) {
	c := New(Config{Capacity: 8})
	ctx := context.Background()

	filled := []byte("pristine")
	miss, out, err := c.GetOrFill(ctx, "k", func() ([]byte, error) { return filled, nil })
	if err != nil || out != Miss {
		t.Fatalf("first lookup = %v, %v; want Miss, nil", out, err)
	}
	if &miss[0] != &filled[0] {
		t.Fatal("miss did not return the fill's own slice")
	}
	hit, out, err := c.GetOrFill(ctx, "k", fillConst("other", nil))
	if err != nil || out != Hit {
		t.Fatalf("second lookup = %v, %v; want Hit, nil", out, err)
	}
	if string(hit) != "pristine" {
		t.Fatalf("hit = %q, want the filled bytes", hit)
	}
	if &hit[0] != &filled[0] {
		t.Fatal("hit copied the entry; the contract says hits return the cache-owned slice")
	}
}

// TestHitPathAllocationFree pins the tentpole property the ownership
// transfer buys: a steady-state hit performs zero Go heap allocations.
func TestHitPathAllocationFree(t *testing.T) {
	c := New(Config{Capacity: 8})
	ctx := context.Background()
	if _, _, err := c.GetOrFill(ctx, "k", fillConst("body", nil)); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, out, _ := c.GetOrFill(ctx, "k", fillConst("dup", nil)); out != Hit {
			t.Fatal("expected hit")
		}
	})
	if n != 0 {
		t.Fatalf("cache hit allocates %v/op, want 0", n)
	}
}

// TestCoalescedWaiterSeesLeaderRender covers the coalesced corner of
// the ownership contract: a waiter receives the leader's transferred
// (now cache-owned, read-only) bytes — under -race this also proves
// the publish through flight.val is properly ordered by the done
// channel.
func TestCoalescedWaiterSeesLeaderRender(t *testing.T) {
	c := New(Config{Capacity: 8})
	release := make(chan struct{})
	leaderIn := make(chan struct{})

	waiterVal := make(chan []byte, 1)
	go func() {
		c.GetOrFill(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-release
			return []byte("rendered"), nil
		})
	}()
	<-leaderIn
	go func() {
		v, _, _ := c.GetOrFill(context.Background(), "k", fillConst("dup", nil))
		waiterVal <- v
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	wv := <-waiterVal
	if string(wv) != "rendered" {
		t.Fatalf("waiter bytes = %q, want the leader's render", wv)
	}
	hit, out, err := c.GetOrFill(context.Background(), "k", fillConst("other", nil))
	if err != nil || out != Hit {
		t.Fatalf("post-coalesce lookup = %v, %v; want Hit, nil", out, err)
	}
	if string(hit) != "rendered" {
		t.Fatalf("stored entry = %q, want the leader's render", hit)
	}
}
