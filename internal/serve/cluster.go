package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// ClusterOptions configures an in-process FPM-style cluster: N complete
// backend stacks (pool + scheduler + response cache) behind one
// consistent-hash ring, the same topology cmd/phprouter builds out of
// real processes. The in-process form exists for benchmarks and tests,
// where process spawning would cost determinism and wall clock.
type ClusterOptions struct {
	// Backends is the number of backend stacks (>= 1).
	Backends int
	// WorkersPerBackend sizes each backend's pool (>= 1).
	WorkersPerBackend int
	// Config is the per-worker VM configuration.
	Config vm.Config
	// App names the workload every backend serves (must support pages).
	App string
	// Seed is the base RNG seed; backends share it so page identity is
	// cluster-wide (page N renders identically on every backend).
	Seed int64
	// QueueDepth and Timeout configure each backend's scheduler.
	QueueDepth int
	Timeout    time.Duration
	// CacheCapacity is the TOTAL cached-response budget across the
	// cluster, split evenly per backend (minimum 1 each). Fixing the
	// total keeps the aggregate hit ratio comparable across backend
	// counts: the ring partitions pages by hash, not popularity, so
	// each backend sees a popularity-scaled slice of the same Zipf
	// curve and a proportional slice of the capacity.
	CacheCapacity int
	// Pages and ZipfS describe the page popularity distribution.
	Pages int
	ZipfS float64
	// DBWait is the simulated per-render backend I/O stall (database
	// round trips) each miss holds its worker for — the reason FPM
	// fleets run many processes per core. Zero disables it.
	DBWait time.Duration
	// RingReplicas is the virtual-node count per backend (<= 0 selects
	// cache.DefaultRingReplicas).
	RingReplicas int
}

func (o *ClusterOptions) normalize() error {
	if o.Backends <= 0 {
		return fmt.Errorf("serve: cluster needs at least 1 backend, got %d", o.Backends)
	}
	if o.WorkersPerBackend <= 0 {
		return fmt.Errorf("serve: cluster needs at least 1 worker per backend, got %d", o.WorkersPerBackend)
	}
	if o.CacheCapacity <= 0 {
		return fmt.Errorf("serve: cluster needs a positive total cache capacity, got %d", o.CacheCapacity)
	}
	if o.Pages <= 0 {
		return fmt.Errorf("serve: cluster needs a positive page count, got %d", o.Pages)
	}
	if o.DBWait < 0 {
		return fmt.Errorf("serve: cluster dbwait must be >= 0, got %v", o.DBWait)
	}
	return nil
}

// ClusterBackend is one backend stack of an in-process Cluster.
type ClusterBackend struct {
	// ID is the backend's ring member name ("0", "1", ...).
	ID string
	// Pool, Sched, Cache are the backend's serving stack.
	Pool  *workload.Pool
	Sched *Scheduler
	Cache *cache.Cache
}

// Cluster is the in-process cluster harness: the benchrec cluster_zipf
// scenarios (stall-free; they record simulated results only), loadgen
// -cluster (with -dbwait, the way to reproduce the I/O-overlap scaling
// claim) and the cluster e2e tests drive it directly, with no processes
// or sockets between router math and backend stacks.
type Cluster struct {
	// Opts echoes the normalized construction options.
	Opts ClusterOptions
	// Backends holds the stacks, index == backend id.
	Backends []*ClusterBackend
	// Ring is the cache-affinity ring over backend ids.
	Ring *cache.Ring
}

// NewCluster builds the backend stacks and ring. Pools share the base
// seed (page identity is cluster-wide); each backend's cache gets an
// even share of the total capacity.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	cl := &Cluster{Opts: opts, Ring: cache.NewRing(opts.RingReplicas)}
	for i := 0; i < opts.Backends; i++ {
		cl.Ring.Add(strconv.Itoa(i))
	}
	// Split the total capacity budget proportionally to each backend's
	// owned share of the page universe (which the cluster, unlike a
	// generic router, knows exactly). A plain total/N split leaves the
	// backend that hashes slightly more pages under-provisioned, which
	// shows up directly as an aggregate hit-ratio gap vs. single-process.
	owned := make([]int, opts.Backends)
	for p := 0; p < opts.Pages; p++ {
		owned[cl.OwnerOf(p)]++
	}
	for i := 0; i < opts.Backends; i++ {
		perCache := opts.CacheCapacity * owned[i] / opts.Pages
		if perCache < 1 {
			perCache = 1
		}
		pool, err := workload.NewPoolSharedSeed(opts.WorkersPerBackend, opts.Config, opts.App, opts.Seed)
		if err != nil {
			return nil, err
		}
		b := &ClusterBackend{
			ID:    strconv.Itoa(i),
			Pool:  pool,
			Sched: NewScheduler(pool, Config{QueueDepth: opts.QueueDepth, Timeout: opts.Timeout}),
			Cache: cache.New(cache.Config{Capacity: perCache}),
		}
		cl.Backends = append(cl.Backends, b)
	}
	return cl, nil
}

// OwnerOf returns the backend index owning a page's key.
func (c *Cluster) OwnerOf(page int) int {
	m, _ := c.Ring.Owner(PageKey(page))
	i, _ := strconv.Atoi(m)
	return i
}

// Warm runs warmup requests on every backend pool concurrently (each
// pool's warmup stream is deterministic on its own, so overlapping them
// costs nothing but saves wall clock).
func (c *Cluster) Warm(warmup int) {
	var wg sync.WaitGroup
	for _, b := range c.Backends {
		wg.Add(1)
		go func(b *ClusterBackend) {
			defer wg.Done()
			b.Pool.Run(workload.LoadGenerator{Warmup: warmup}, 0)
		}(b)
	}
	wg.Wait()
}

// BackendClusterStats pairs one backend with what it observed during a
// RunZipf: its own LoadStats plus the distinct pages routed to it.
type BackendClusterStats struct {
	// ID is the backend's ring member name.
	ID string
	// Pages is how many distinct pages the ring assigned this backend
	// during the run.
	Pages int
	// Load is the backend's own closed-loop stats (Wall covers only
	// this backend's serving span).
	Load LoadStats
}

// ClusterStats aggregates a RunZipf across backends.
type ClusterStats struct {
	// Aggregate sums outcome counts across backends; its Wall is the
	// whole run's span (max over backends), so Aggregate throughput is
	// cluster throughput.
	Aggregate LoadStats
	// PerBackend holds each backend's own view, index == backend id.
	PerBackend []BackendClusterStats
}

// RunZipf draws `requests` pages from the cluster's Zipf distribution,
// partitions them by ring owner, and serves each backend's share on
// that backend — RunLoad with one closed-loop client per backend, pages
// in draw order, each render stalling DBWait on its worker.
// Serial-per-backend serving keeps every cache outcome deterministic
// (no cross-client races, no coalescing) while backends overlap in wall
// clock; with a DBWait stall per render, N backends overlap N stalls,
// which is the cluster's near-linear scaling claim.
func (c *Cluster) RunZipf(ctx context.Context, requests int) (ClusterStats, error) {
	if requests <= 0 {
		return ClusterStats{}, fmt.Errorf("serve: cluster run needs a positive request count, got %d", requests)
	}
	keys, err := workload.NewZipfKeys(c.Opts.Seed, c.Opts.ZipfS, c.Opts.Pages)
	if err != nil {
		return ClusterStats{}, err
	}
	// Partition the draw stream up front: request k goes to the ring
	// owner of its page key, preserving draw order within each backend.
	streams := make([][]int, len(c.Backends))
	pageSets := make([]map[int]bool, len(c.Backends))
	for i := range pageSets {
		pageSets[i] = make(map[int]bool)
	}
	for k := 0; k < requests; k++ {
		page := keys.Next()
		owner := c.OwnerOf(page)
		streams[owner] = append(streams[owner], page)
		pageSets[owner][page] = true
	}

	stats := ClusterStats{PerBackend: make([]BackendClusterStats, len(c.Backends))}
	start := time.Now()
	var wg sync.WaitGroup
	for i, b := range c.Backends {
		wg.Add(1)
		go func(i int, b *ClusterBackend) {
			defer wg.Done()
			pages := streams[i]
			stats.PerBackend[i] = BackendClusterStats{
				ID:    b.ID,
				Pages: len(pageSets[i]),
				Load: RunLoad(ctx, b.Sched, LoadOptions{
					Requests: len(pages),
					Clients:  1,
					Cache:    b.Cache,
					Stall:    c.Opts.DBWait,
					PageKey: func() int {
						page := pages[0]
						pages = pages[1:]
						return page
					},
				}),
			}
		}(i, b)
	}
	wg.Wait()
	wall := time.Since(start)

	agg := &stats.Aggregate
	var lats []time.Duration
	for _, pb := range stats.PerBackend {
		agg.Submitted += pb.Load.Submitted
		agg.Served += pb.Load.Served
		agg.ShedOverload += pb.Load.ShedOverload
		agg.ShedDeadline += pb.Load.ShedDeadline
		agg.ShedCanceled += pb.Load.ShedCanceled
		agg.ShedDraining += pb.Load.ShedDraining
		agg.CacheHits += pb.Load.CacheHits
		agg.CacheMisses += pb.Load.CacheMisses
		agg.CacheCoalesced += pb.Load.CacheCoalesced
		lats = append(lats, pb.Load.rawLatencies...)
	}
	agg.Wall = wall
	agg.Latency = workload.LatencyStatsFrom(lats)
	return stats, nil
}

// MergedMeter aggregates simulated costs across every backend: all pool
// meters merged in backend order, then each backend cache's lookup
// charges, so cluster totals stay exact the way single-process totals
// are.
func (c *Cluster) MergedMeter() *sim.Meter {
	mt := sim.NewMeter(sim.DefaultCostModel())
	for _, b := range c.Backends {
		mt.Merge(b.Pool.MergedMeter())
		b.Cache.MergeMeter(mt)
	}
	return mt
}
