package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vm"
)

func testClusterOpts(backends int) ClusterOptions {
	return ClusterOptions{
		Backends:          backends,
		WorkersPerBackend: 1,
		Config:            vm.Config{},
		App:               "wordpress",
		Seed:              7,
		QueueDepth:        16,
		Timeout:           30 * time.Second,
		CacheCapacity:     64,
		Pages:             128,
		ZipfS:             1.0,
	}
}

// TestClusterDisjointOwnershipAndDeterminism: the ring partitions the
// page stream so no page is served by two backends, outcome counts are
// exact, and a second identical cluster reproduces them bit-for-bit.
func TestClusterDisjointOwnershipAndDeterminism(t *testing.T) {
	run := func() (ClusterStats, *Cluster) {
		opts := testClusterOpts(4)
		// Generous capacity (the cache is sharded LRU, so bare
		// capacity == distinct keys can still evict within an unlucky
		// shard): with no eviction pressure, each distinct page misses
		// exactly once, making ownership exact.
		opts.CacheCapacity = opts.Pages * 8
		cl, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		cl.Warm(2)
		cs, err := cl.RunZipf(context.Background(), 120)
		if err != nil {
			t.Fatal(err)
		}
		return cs, cl
	}
	cs, cl := run()

	agg := cs.Aggregate
	if agg.Served != 120 || agg.Submitted != 120 {
		t.Fatalf("served %d submitted %d, want 120/120", agg.Served, agg.Submitted)
	}
	if agg.Shed() != 0 {
		t.Fatalf("cluster run shed %d requests", agg.Shed())
	}
	if agg.CacheHits+agg.CacheMisses+agg.CacheCoalesced != agg.Served {
		t.Fatalf("cache outcomes %d+%d+%d don't partition served %d",
			agg.CacheHits, agg.CacheMisses, agg.CacheCoalesced, agg.Served)
	}
	if agg.CacheCoalesced != 0 {
		t.Fatalf("serial per-backend serving coalesced %d requests", agg.CacheCoalesced)
	}
	if agg.CacheHits == 0 {
		t.Fatal("Zipf stream produced no cache hits")
	}

	// Every backend's cache saw only pages the ring assigned to it, and
	// per-backend cache stats agree with the harness's own counts.
	served := 0
	for i, pb := range cs.PerBackend {
		st := cl.Backends[i].Cache.Stats()
		if int(st.Hits) != pb.Load.CacheHits || int(st.Misses) != pb.Load.CacheMisses {
			t.Fatalf("backend %d: cache stats %d/%d vs harness %d/%d",
				i, st.Hits, st.Misses, pb.Load.CacheHits, pb.Load.CacheMisses)
		}
		// With capacity >= pages owned, every distinct page misses
		// exactly once; the rest are hits.
		if pb.Load.CacheMisses != pb.Pages {
			t.Fatalf("backend %d: %d misses for %d distinct pages", i, pb.Load.CacheMisses, pb.Pages)
		}
		served += pb.Load.Served
	}
	if served != agg.Served {
		t.Fatalf("per-backend served sums to %d, aggregate says %d", served, agg.Served)
	}

	// Determinism: a fresh identical cluster reproduces every count and
	// every simulated cycle (benchrec compares both exactly against the
	// committed record).
	cs2, cl2 := run()
	for i := range cs.PerBackend {
		a, b := cs.PerBackend[i].Load, cs2.PerBackend[i].Load
		if a.Served != b.Served || a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses {
			t.Fatalf("backend %d not deterministic: %+v vs %+v", i, a, b)
		}
	}
	// Compare via the dense category vector (deterministic summation
	// order) — the same path benchrec's records use.
	if a, b := cl.MergedMeter().CategoryCyclesVec().Total(), cl2.MergedMeter().CategoryCyclesVec().Total(); a != b {
		t.Fatalf("simulated totals differ across identical runs: %g vs %g", a, b)
	}
}

// TestClusterAggregateHitRatioParity: splitting one capacity budget
// across N hash-partitioned backends keeps the aggregate hit ratio
// close to the single-backend ratio — the acceptance bound is 5
// percentage points.
func TestClusterAggregateHitRatioParity(t *testing.T) {
	ratio := func(backends int) float64 {
		cl, err := NewCluster(testClusterOpts(backends))
		if err != nil {
			t.Fatal(err)
		}
		cl.Warm(2)
		cs, err := cl.RunZipf(context.Background(), 400)
		if err != nil {
			t.Fatal(err)
		}
		return cs.Aggregate.CacheHitRatio()
	}
	single := ratio(1)
	for _, n := range []int{2, 4} {
		got := ratio(n)
		diff := got - single
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05 {
			t.Fatalf("hit ratio at %d backends = %.3f, single = %.3f (drift %.3f > 0.05)", n, got, single, diff)
		}
	}
}

// TestClusterDBWaitOverlaps: with a per-render I/O stall, N backends
// overlap their stalls, so 4 backends finish a miss-heavy stream in well
// under the time its stalls alone take end to end. That serial time is
// computed, not measured (a stall never returns early, so no serial
// execution can beat misses x stall): one wall clock against a bound,
// never two wall clocks against each other.
func TestClusterDBWaitOverlaps(t *testing.T) {
	// The stall must dominate render CPU for overlap to show: on a
	// single host core the CPU part serializes no matter how many
	// backends run, exactly like real FPM fleets sized for I/O-bound
	// pages.
	const dbWait = 40 * time.Millisecond
	opts := testClusterOpts(4)
	opts.DBWait = dbWait
	cl, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	cl.Warm(2)
	cs, err := cl.RunZipf(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Aggregate.Served != 60 {
		t.Fatalf("served %d", cs.Aggregate.Served)
	}
	// The exact speedup depends on the straggler backend's share (about
	// a third of the misses); finishing inside the stalls' own serial
	// time at all, render CPU included, proves they overlap rather than
	// serialize.
	serial := time.Duration(cs.Aggregate.CacheMisses) * dbWait
	if wall := cs.Aggregate.Wall; wall >= serial {
		t.Fatalf("4 backends took %v for %d stalled renders (%v back to back): stalls are not overlapping",
			wall, cs.Aggregate.CacheMisses, serial)
	}
}

// backendCounts is one backend's served, distinct pages, hits, misses
// and coalesced counts, in that order.
func backendCounts(pb BackendClusterStats) [5]int {
	return [5]int{pb.Load.Served, pb.Pages, pb.Load.CacheHits, pb.Load.CacheMisses, pb.Load.CacheCoalesced}
}

// TestClusterStallLeavesRecordUnchanged: the stall is host time only.
// Each backend serves its share from one closed-loop client, so with or
// without DBWait the per-backend outcome counts and the merged category
// cycles are equal — which is why the benchrec cluster scenarios run
// with no stall.
func TestClusterStallLeavesRecordUnchanged(t *testing.T) {
	run := func(backends int, dbWait time.Duration) ([][5]int, sim.CategoryVec) {
		opts := testClusterOpts(backends)
		opts.DBWait = dbWait
		cl, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		cl.Warm(2)
		cs, err := cl.RunZipf(context.Background(), 80)
		if err != nil {
			t.Fatal(err)
		}
		var counts [][5]int
		for _, pb := range cs.PerBackend {
			counts = append(counts, backendCounts(pb))
		}
		return counts, cl.MergedMeter().CategoryCyclesVec()
	}
	for _, backends := range []int{1, 2, 4} {
		counts, cycles := run(backends, 0)
		stalledCounts, stalledCycles := run(backends, 2*time.Millisecond)
		if !reflect.DeepEqual(counts, stalledCounts) {
			t.Errorf("%d backends: served/pages/hits/misses/coalesced %v without stall, %v with", backends, counts, stalledCounts)
		}
		if cycles != stalledCycles {
			t.Errorf("%d backends: merged category cycles %v without stall, %v with", backends, cycles, stalledCycles)
		}
	}
}

func TestClusterOptionValidation(t *testing.T) {
	bad := []func(*ClusterOptions){
		func(o *ClusterOptions) { o.Backends = 0 },
		func(o *ClusterOptions) { o.WorkersPerBackend = 0 },
		func(o *ClusterOptions) { o.CacheCapacity = 0 },
		func(o *ClusterOptions) { o.Pages = 0 },
		func(o *ClusterOptions) { o.DBWait = -time.Second },
	}
	for i, mutate := range bad {
		opts := testClusterOpts(1)
		mutate(&opts)
		if _, err := NewCluster(opts); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	cl, err := NewCluster(testClusterOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunZipf(context.Background(), 0); err == nil {
		t.Fatal("zero-request run accepted")
	}
}

// TestClusterRunZipfThroughRunLoad pins RunZipf's move onto RunLoad: the
// per-backend served/distinct-page/hit/miss/coalesced counts and the
// merged per-category cycles for seed 1 are the values the hand-rolled
// per-backend loop produced before it was deleted.
func TestClusterRunZipfThroughRunLoad(t *testing.T) {
	opts := testClusterOpts(4)
	opts.Seed = 1
	cl, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	cl.Warm(2)
	cs, err := cl.RunZipf(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	want := [][5]int{ // served, distinct pages, hits, misses, coalesced
		{102, 24, 77, 25, 0},
		{34, 8, 26, 8, 0},
		{21, 14, 6, 15, 0},
		{43, 13, 29, 14, 0},
	}
	for i, pb := range cs.PerBackend {
		if got := backendCounts(pb); got != want[i] {
			t.Errorf("backend %d: served/pages/hits/misses/coalesced = %v, want %v", i, got, want[i])
		}
		if pb.Load.Latency.Count != pb.Load.Served || pb.Load.Shed() != 0 {
			t.Errorf("backend %d: %d latencies for %d served, %d shed", i, pb.Load.Latency.Count, pb.Load.Served, pb.Load.Shed())
		}
	}
	if agg := cs.Aggregate; agg.Served != 200 || agg.Latency.Count != 200 {
		t.Errorf("aggregate served %d with %d latencies, want 200/200", agg.Served, agg.Latency.Count)
	}
	wantCycles := sim.CategoryVec{9.955809523809517e+06, 1.5825182258064516e+06, 1.49264e+06,
		1.4204335483870967e+06, 1.2174951612903224e+06, 526640, 902800, 166315.78947368424}
	if got := cl.MergedMeter().CategoryCyclesVec(); got != wantCycles {
		t.Errorf("merged category cycles = %v, want %v", got, wantCycles)
	}
}
