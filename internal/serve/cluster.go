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

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Loopback is a whole cluster in one process: Servers built by NewServer
// behind a Router, each serving its own loopback listener — the
// phprouter + phpserve -fpm topology with the processes folded into one
// and the sockets kept. The benchrec cluster scenarios and the cluster
// tests run on it, so they measure the servers and the hop the binaries
// run.
type Loopback struct {
	// Servers are the backends, index == backend id; Router fronts them.
	Servers []*Server
	Router  *Router

	cfg   ServerConfig
	ring  *cache.Ring // the router's ring, rebuilt: it partitions a run's stream
	front string
	hs    []*HTTPServer
	// hops are the clients, one per RunZipf stream, so each stream keeps
	// its own keep-alive connection to the router.
	hops []*hop
	wrap func(net.Conn) net.Conn
}

// StartLoopback builds n backends from cfg — backend i is cfg as -fpm
// backend i — warming them concurrently, and serves them behind a router
// built from rcfg. cfg.CacheCapacity is the cluster's total: each
// backend caches the share of it that its share of cfg.Pages on the ring
// is, which keeps the aggregate hit ratio comparable across backend
// counts (the ring splits pages by hash, not popularity).
func StartLoopback(n int, cfg ServerConfig, rcfg RouterConfig) (*Loopback, error) {
	return startLoopback(n, cfg, rcfg, nil)
}

// startLoopback is StartLoopback with every connection, accepted or
// dialled, passed through wrap when it is non-nil.
func startLoopback(n int, cfg ServerConfig, rcfg RouterConfig, wrap func(net.Conn) net.Conn) (*Loopback, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: a cluster needs at least 1 backend, got %d", n)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &Loopback{
		Servers: make([]*Server, n),
		cfg:     cfg,
		ring:    cache.NewRing(cache.DefaultRingReplicas),
		hops:    make([]*hop, n),
		wrap:    wrap,
	}
	dial := wrapDial(wrap)
	for i := 0; i < n; i++ {
		l.ring.Add(strconv.Itoa(i))
		l.hops[i] = newHop(0)
		l.hops[i].dial = dial
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
	if h, ok := l.Router.transport.(*hop); ok {
		h.dial = dial
	}
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
	hs := NewHTTPServer(h)
	hs.wrap = l.wrap
	l.hs = append(l.hs, hs)
	go hs.Serve(lis)
	return lis.Addr().String(), nil
}

// wrapDial is a hop's dial through wrap (nil without one: the hop's own).
func wrapDial(wrap func(net.Conn) net.Conn) func(context.Context, string) (net.Conn, error) {
	if wrap == nil {
		return nil
	}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		nc, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return wrap(nc), nil
	}
}

// owner returns the index of the backend whose ring range holds page.
func (l *Loopback) owner(page int) int {
	m, _ := l.ring.Owner(PageKey(page))
	i, _ := strconv.Atoi(m)
	return i
}

// Close stops every listener and drops the idle connections of every
// hop, the clients' and the router's.
func (l *Loopback) Close() {
	for _, hs := range l.hs {
		hs.Close()
	}
	for _, h := range l.hops {
		h.closeIdle()
	}
	if h, ok := l.Router.transport.(*hop); ok {
		h.closeIdle()
	}
}

// BackendClusterStats pairs one backend with what it observed during a
// RunZipf: its own LoadStats plus the distinct pages routed to it.
type BackendClusterStats struct {
	// Pages is how many distinct pages the ring assigned this backend
	// during the run.
	Pages int
	// Load is the backend's stream as its client saw it.
	Load LoadStats
}

// ClusterStats aggregates a RunZipf across backends.
type ClusterStats struct {
	// Aggregate sums outcome counts across backends.
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
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats.PerBackend[i] = BackendClusterStats{Pages: len(pageSets[i])}
			stats.PerBackend[i].Load, errs[i] = l.stream(ctx, l.hops[i], streams[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return stats, err
	}

	agg := &stats.Aggregate
	for _, pb := range stats.PerBackend {
		agg.Submitted += pb.Load.Submitted
		agg.Served += pb.Load.Served
		agg.ShedOverload += pb.Load.ShedOverload
		agg.ShedDeadline += pb.Load.ShedDeadline
		agg.ShedCanceled += pb.Load.ShedCanceled
		agg.CacheHits += pb.Load.CacheHits
		agg.CacheMisses += pb.Load.CacheMisses
		agg.CacheCoalesced += pb.Load.CacheCoalesced
	}
	return stats, nil
}

// stream is one closed-loop client: GET /?page=N at the router for each
// page in order, the answer counted by its status and X-Cache header.
func (l *Loopback) stream(ctx context.Context, client *hop, pages []int) (LoadStats, error) {
	var ls LoadStats
	for _, page := range pages {
		if ctx.Err() != nil {
			break
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+l.front+"/?page="+strconv.Itoa(page), nil)
		if err != nil {
			return ls, err
		}
		resp, err := client.RoundTrip(req)
		if err != nil {
			return ls, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return ls, err
		}
		ls.Submitted++
		switch resp.StatusCode {
		case http.StatusOK:
			ls.Served++
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
