package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// testClusterConfig is every backend of the test clusters: one
// software-only wordpress worker behind a 64-entry share of the cache.
func testClusterConfig() ServerConfig {
	return ServerConfig{
		App: "wordpress", Core: "baseline", Workers: 1, Seed: 7, Warmup: 2,
		QueueDepth: 16, Timeout: 30 * time.Second,
		CacheCapacity: 64, Pages: 128, ZipfS: 1.0,
	}
}

// startTestCluster starts backends servers from cfg behind a router.
func startTestCluster(t *testing.T, backends int, cfg ServerConfig) *Loopback {
	t.Helper()
	cl, err := StartLoopback(backends, cfg, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestClusterDisjointOwnershipAndDeterminism: the ring partitions the
// page stream so no page is served by two backends, outcome counts are
// exact, and a second identical cluster reproduces them bit-for-bit.
func TestClusterDisjointOwnershipAndDeterminism(t *testing.T) {
	run := func() (ClusterStats, *Loopback) {
		cfg := testClusterConfig()
		// Generous capacity (the cache is sharded LRU, so bare
		// capacity == distinct keys can still evict within an unlucky
		// shard): with no eviction pressure, each distinct page misses
		// exactly once, making ownership exact.
		cfg.CacheCapacity = cfg.Pages * 8
		cl := startTestCluster(t, 4, cfg)
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
	if shed(agg) != 0 {
		t.Fatalf("cluster run shed %d requests", shed(agg))
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

	// Every request crossed the router to its page's owner at the first
	// try, and every backend's cache saw only pages the ring assigned to
	// it: per-backend cache stats agree with the harness's own counts.
	if rs := cl.Router.Stats(); rs.Requests() != 120 || rs.Retries != 0 {
		t.Fatalf("router proxied %d requests with %d retries, want 120 and none", rs.Requests(), rs.Retries)
	}
	served := 0
	for i, pb := range cs.PerBackend {
		st := cl.Servers[i].Cache.Stats()
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
		cl := startTestCluster(t, backends, testClusterConfig())
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
	cfg := testClusterConfig()
	cfg.DBWait = dbWait
	cl := startTestCluster(t, 4, cfg)
	start := time.Now()
	cs, err := cl.RunZipf(context.Background(), 60)
	wall := time.Since(start)
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
	if wall >= serial {
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
		cfg := testClusterConfig()
		cfg.DBWait = dbWait
		cl := startTestCluster(t, backends, cfg)
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
	if _, err := StartLoopback(0, testClusterConfig(), RouterConfig{}); err == nil {
		t.Fatal("a cluster of no backends accepted")
	}
	for i, mutate := range []func(*ServerConfig){
		func(c *ServerConfig) { c.Workers = 0 },
		func(c *ServerConfig) { c.CacheCapacity = -1 },
		func(c *ServerConfig) { c.Pages = 0 },
		func(c *ServerConfig) { c.DBWait = -time.Second },
	} {
		cfg := testClusterConfig()
		mutate(&cfg)
		if cl, err := StartLoopback(1, cfg, RouterConfig{}); err == nil {
			cl.Close()
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	cl := startTestCluster(t, 1, testClusterConfig())
	if _, err := cl.RunZipf(context.Background(), 0); err == nil {
		t.Fatal("zero-request run accepted")
	}
}

// TestLoopbackCloseDropsIdleConnections: after a run both hops hold idle
// keep-alive connections (client to router, router to each backend);
// Close leaves neither holding one, so a process that builds a Loopback
// per scenario does not accumulate sockets.
func TestLoopbackCloseDropsIdleConnections(t *testing.T) {
	cl, err := StartLoopback(2, testClusterConfig(), RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunZipf(context.Background(), 20); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	idle := func(h *hop) int {
		h.mu.Lock()
		defer h.mu.Unlock()
		n := 0
		for _, conns := range h.idle {
			n += len(conns)
		}
		return n
	}
	router := cl.Router.transport.(*hop)
	client := func() int { return idle(cl.hops[0]) + idle(cl.hops[1]) }
	if client() != 2 || idle(router) != 2 {
		t.Fatalf("after the run: %d client and %d router idle connections, want 2 and 2", client(), idle(router))
	}
	cl.Close()
	if client() != 0 || idle(router) != 0 {
		t.Errorf("after Close: %d client and %d router idle connections, want none", client(), idle(router))
	}
}

// TestClusterRunZipfThroughRunLoad pins RunZipf's counts and cycles:
// the per-backend served/distinct-page/hit/miss/coalesced counts and
// the merged per-category cycles for seed 1 on the router's
// 2048-replica ring (cache.DefaultRingReplicas).
func TestClusterRunZipfThroughRunLoad(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Seed = 1
	cl := startTestCluster(t, 4, cfg)
	cs, err := cl.RunZipf(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	want := [][5]int{ // served, distinct pages, hits, misses, coalesced
		{44, 17, 26, 18, 0},
		{46, 14, 32, 14, 0},
		{33, 15, 18, 15, 0},
		{77, 13, 64, 13, 0},
	}
	for i, pb := range cs.PerBackend {
		if got := backendCounts(pb); got != want[i] {
			t.Errorf("backend %d: served/pages/hits/misses/coalesced = %v, want %v", i, got, want[i])
		}
		if pb.Load.Submitted != pb.Load.Served || shed(pb.Load) != 0 {
			t.Errorf("backend %d: %d served of %d submitted, %d shed", i, pb.Load.Served, pb.Load.Submitted, shed(pb.Load))
		}
	}
	if agg := cs.Aggregate; agg.Served != 200 || agg.Submitted != 200 {
		t.Errorf("aggregate served %d of %d submitted, want 200/200", agg.Served, agg.Submitted)
	}
	wantCycles := sim.CategoryVec{9.634654377880182e+06, 1.5585975806451612e+06, 1.444490322580645e+06,
		1.3745987096774194e+06, 1.1782258064516129e+06, 509651.6129032258, 873677.4193548387, 160950.7640067912}
	if got := cl.MergedMeter().CategoryCyclesVec(); got != wantCycles {
		t.Errorf("merged category cycles = %v, want %v", got, wantCycles)
	}
}
