package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Loopback is a whole cluster in one process: Servers built by NewServer
// behind a Router, each serving its own loopback listener — the
// phprouter + phpserve -fpm topology with the processes folded into one
// and the sockets kept. The benchrec cluster scenarios, loadgen -cluster
// and the cluster tests run on it, so they measure the servers and the
// hop the binaries run.
type Loopback struct {
	// Servers are the backends, index == backend id; Router fronts them.
	Servers []*Server
	Router  *Router

	cfg   ServerConfig
	ring  *cache.Ring // the router's ring, rebuilt: it partitions a run's stream
	front string
	hs    []*http.Server
	hop   *hop // the clients' one connection pool, one keep-alive connection per stream
}

// StartLoopback builds n backends from cfg — backend i is cfg as -fpm
// backend i — warming them concurrently, and serves them behind a router
// built from rcfg. cfg.CacheCapacity is the cluster's total: each
// backend caches the share of it that its share of cfg.Pages on the ring
// is, which keeps the aggregate hit ratio comparable across backend
// counts (the ring splits pages by hash, not popularity).
func StartLoopback(n int, cfg ServerConfig, rcfg RouterConfig) (*Loopback, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: a cluster needs at least 1 backend, got %d", n)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &Loopback{
		Servers: make([]*Server, n),
		cfg:     cfg,
		ring:    cache.NewRing(rcfg.RingReplicas),
		hop:     &hop{timeout: 30 * time.Second, idle: make(map[string][]*hopConn)},
	}
	for i := 0; i < n; i++ {
		l.ring.Add(strconv.Itoa(i))
	}
	owned := make([]int, n)
	for p := 0; p < cfg.Pages; p++ {
		owned[l.owner(p)]++
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range l.Servers {
		bc := cfg
		bc.Backend = i
		if cfg.CacheCapacity > 0 {
			bc.CacheCapacity = max(1, cfg.CacheCapacity*owned[i]/cfg.Pages)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Servers[i], errs[i] = NewServer(bc)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	l.Router = NewRouter(rcfg)
	for i, s := range l.Servers {
		addr, err := l.listen(s.Handler())
		if err != nil {
			l.Close()
			return nil, err
		}
		l.Router.AddBackend(strconv.Itoa(i), addr)
	}
	var err error
	if l.front, err = l.listen(l.Router.Handler()); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// listen serves h on a fresh loopback port and returns its address.
func (l *Loopback) listen(h http.Handler) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	l.hs = append(l.hs, hs)
	go hs.Serve(lis)
	return lis.Addr().String(), nil
}

// owner returns the index of the backend whose ring range holds page.
func (l *Loopback) owner(page int) int {
	m, _ := l.ring.Owner(PageKey(page))
	i, _ := strconv.Atoi(m)
	return i
}

// Close stops every listener and drops the idle connections of both
// hops, the clients' and the router's.
func (l *Loopback) Close() {
	for _, hs := range l.hs {
		hs.Close()
	}
	l.hop.closeIdle()
	if h, ok := l.Router.transport.(*hop); ok {
		h.closeIdle()
	}
}

// BackendClusterStats pairs one backend with what it observed during a
// RunZipf: its own LoadStats plus the distinct pages routed to it.
type BackendClusterStats struct {
	// ID is the backend's ring member name.
	ID string
	// Pages is how many distinct pages the ring assigned this backend
	// during the run.
	Pages int
	// Load is the backend's stream as its client saw it (Wall covers
	// only this stream).
	Load LoadStats
}

// ClusterStats aggregates a RunZipf across backends.
type ClusterStats struct {
	// Aggregate sums outcome counts across backends; its Wall is the
	// whole run's span, so Aggregate throughput is cluster throughput.
	Aggregate LoadStats
	// PerBackend holds each backend's own view, index == backend id.
	PerBackend []BackendClusterStats
}

// RunZipf draws requests pages from Zipf(cfg.ZipfS) over cfg.Pages,
// seeded with cfg.Seed, partitions the draws by ring owner and sends
// each backend's share through the router from one closed-loop client
// of its own, in draw order. Serial per backend, every cache outcome and
// simulated cycle is a function of the seed (no cross-client races, no
// coalescing) while the backends overlap in wall clock; with a DBWait
// stall per render, n backends overlap n stalls, which is the cluster's
// near-linear scaling claim. A request that gets no HTTP answer fails
// the run.
func (l *Loopback) RunZipf(ctx context.Context, requests int) (ClusterStats, error) {
	if requests <= 0 {
		return ClusterStats{}, fmt.Errorf("serve: cluster run needs a positive request count, got %d", requests)
	}
	keys, err := workload.NewZipfKeys(l.cfg.Seed, l.cfg.ZipfS, l.cfg.Pages)
	if err != nil {
		return ClusterStats{}, err
	}
	n := len(l.Servers)
	streams := make([][]int, n)
	pageSets := make([]map[int]bool, n)
	for i := range pageSets {
		pageSets[i] = make(map[int]bool)
	}
	for k := 0; k < requests; k++ {
		page := keys.Next()
		owner := l.owner(page)
		streams[owner] = append(streams[owner], page)
		pageSets[owner][page] = true
	}

	stats := ClusterStats{PerBackend: make([]BackendClusterStats, n)}
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats.PerBackend[i] = BackendClusterStats{ID: strconv.Itoa(i), Pages: len(pageSets[i])}
			stats.PerBackend[i].Load, errs[i] = l.stream(ctx, streams[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return stats, err
	}

	agg := &stats.Aggregate
	var lats []time.Duration
	for _, pb := range stats.PerBackend {
		agg.Submitted += pb.Load.Submitted
		agg.Served += pb.Load.Served
		agg.ShedOverload += pb.Load.ShedOverload
		agg.ShedDeadline += pb.Load.ShedDeadline
		agg.ShedCanceled += pb.Load.ShedCanceled
		agg.CacheHits += pb.Load.CacheHits
		agg.CacheMisses += pb.Load.CacheMisses
		agg.CacheCoalesced += pb.Load.CacheCoalesced
		lats = append(lats, pb.Load.rawLatencies...)
	}
	agg.Wall = time.Since(start)
	agg.Latency = workload.LatencyStatsFrom(lats)
	return stats, nil
}

// stream is one closed-loop client: GET /?page=N at the router for each
// page in order, the answer counted by its status and X-Cache header.
func (l *Loopback) stream(ctx context.Context, pages []int) (LoadStats, error) {
	var ls LoadStats
	start := time.Now()
	for _, page := range pages {
		if ctx.Err() != nil {
			break
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+l.front+"/?page="+strconv.Itoa(page), nil)
		if err != nil {
			return ls, err
		}
		t0 := time.Now()
		resp, err := l.hop.RoundTrip(req)
		if err != nil {
			return ls, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return ls, err
		}
		lat := time.Since(t0)
		ls.Submitted++
		switch resp.StatusCode {
		case http.StatusOK:
			ls.Served++
			ls.rawLatencies = append(ls.rawLatencies, lat)
			switch resp.Header.Get("X-Cache") {
			case "HIT":
				ls.CacheHits++
			case "COALESCED":
				ls.CacheCoalesced++
			case "MISS":
				ls.CacheMisses++
			}
		case http.StatusServiceUnavailable:
			ls.ShedOverload++
		case http.StatusGatewayTimeout:
			ls.ShedDeadline++
		case statusClientClosedRequest:
			ls.ShedCanceled++
		default:
			return ls, fmt.Errorf("serve: page %d: status %s", page, resp.Status)
		}
	}
	ls.Wall = time.Since(start)
	ls.Latency = workload.LatencyStatsFrom(ls.rawLatencies)
	return ls, nil
}

// MergedMeter aggregates simulated costs across every backend: all pool
// meters merged in backend order, then each backend cache's lookup
// charges, so cluster totals stay exact the way single-process totals
// are.
func (l *Loopback) MergedMeter() *sim.Meter {
	mt := sim.NewMeter(sim.DefaultCostModel())
	for _, s := range l.Servers {
		mt.Merge(s.Pool.MergedMeter())
		if s.Cache != nil {
			s.Cache.MergeMeter(mt)
		}
	}
	return mt
}
