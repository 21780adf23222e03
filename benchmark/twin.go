package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/php"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// vmConfig is phpserve's -config mapping.
func vmConfig(name string) vm.Config {
	switch name {
	case "mitigated":
		return vm.Config{Mitigations: sim.AllMitigations()}
	case "accelerated":
		return vm.Config{Mitigations: sim.AllMitigations(), Features: isa.AllAccelerators()}
	}
	return vm.Config{}
}

// twinBackend is the in-process copy of one phpserve process: the same
// pool, scheduler and cache, built through the same public constructors
// with the same flags' values.
type twinBackend struct {
	pool  *workload.Pool
	sched *serve.Scheduler
	cache *cache.Cache // nil without -cache
}

// twin is the in-process copy of a workload's fleet. It is the reference
// for response bodies, the source of the simulated-clock numbers (which
// the server's /stats must match exactly), and the thing the traced pass
// puts spans around.
type twin struct {
	backends []*twinBackend
	ring     *cache.Ring // cluster only
	keys     []string    // "page:N", cluster only
	spans    *spanRecorder

	// streams[w] holds the body hash of every request worker w has
	// rendered since warm-up, in order (GET / workloads only).
	streams [][]uint64

	// mix tallies the operation-trace events of the exact-pass replay
	// (nil when the run does not report layers): kinds alone survive ring
	// eviction, so the event arguments are read request by request.
	mix *opMix
}

// opMix is the string and regex work of a request sequence as its trace
// events describe it: calls and subject bytes per strlib op code, and
// regex scans with the bytes they covered.
type opMix struct {
	strCalls, strBytes     [16]uint64
	regexScans, regexBytes uint64
	seen                   map[*workload.Worker]int64
	lost                   bool // a request overflowed the trace ring
}

// tally folds in the events wk recorded since its previous tally.
func (m *opMix) tally(wk *workload.Worker) {
	if m == nil {
		return
	}
	rec := wk.Runtime().Trace()
	fresh := rec.Total() - m.seen[wk]
	m.seen[wk] = rec.Total()
	evs := rec.Events()
	if fresh > int64(len(evs)) {
		m.lost = true
		return
	}
	for _, e := range evs[int64(len(evs))-fresh:] {
		switch e.Kind {
		case trace.KindStringOp:
			if e.A < uint64(len(m.strCalls)) {
				m.strCalls[e.A]++
				m.strBytes[e.A] += e.B
			}
		case trace.KindRegexScan:
			m.regexScans++
			m.regexBytes += e.B
		}
	}
}

// serverTraceBuf is phpserve's -tracebuf default.
const serverTraceBuf = 4096

// newTwin builds and warms the fleet copy.
func newTwin(spec workloadSpec, seed int64) (*twin, error) {
	cfg := vmConfig(spec.Config)
	cfg.TraceCapacity = serverTraceBuf
	t := &twin{}
	n := 1
	if spec.Cluster {
		n = 2
		t.ring = cache.NewRing(ringReplicas)
		t.keys = make([]string, clusterPages)
		for i := range t.keys {
			t.keys[i] = serve.PageKey(i)
		}
	} else {
		t.streams = make([][]uint64, spec.Workers)
	}
	for i := 0; i < n; i++ {
		b := &twinBackend{}
		var err error
		if spec.Cluster {
			// Backends run at phpserve's default seed: the client's page
			// stream is the seeded input, the corpus is fixed.
			b.pool, err = workload.NewPoolSharedSeed(spec.Workers, cfg, spec.App, 1)
			b.cache = cache.New(cache.Config{Capacity: clusterCache, Shards: cache.DefaultShards})
			t.ring.Add(strconv.Itoa(i))
		} else {
			b.pool, err = workload.NewPool(spec.Workers, cfg, spec.App, seed)
		}
		if err != nil {
			return nil, err
		}
		if spec.Tier != "" {
			mode, err := php.ParseTierMode(spec.Tier)
			if err != nil {
				return nil, err
			}
			if ok, err := b.pool.ConfigureScriptTier(mode, php.DefaultTierPolicy()); err != nil || !ok {
				return nil, fmt.Errorf("twin: tier %s not applicable to %s: %v", spec.Tier, spec.App, err)
			}
		}
		b.pool.Run(workload.LoadGenerator{Warmup: serverWarmup, ContextSwitchEvery: serverCtxSw}, 0)
		b.sched = serve.NewScheduler(b.pool, serve.Config{QueueDepth: 64})
		t.backends = append(t.backends, b)
	}
	return t, nil
}

// contextSwitch is phpserve's -ctxswitch rule.
func contextSwitch(wk *workload.Worker) {
	if wk.Served()%serverCtxSw == 0 {
		wk.Runtime().ContextSwitch()
	}
}

// serveRoot is phpserve's GET / handler without the socket: admission,
// worker hand-off, render, context-switch rule. It returns the body hash.
func (t *twin) serveRoot(ctx context.Context) (uint64, error) {
	b := t.backends[0]
	var h uint64
	t.spans.nextRequest()
	t.spans.begin("serve.do")
	_, err := b.sched.Do(ctx, func(wk *workload.Worker) error {
		t.spans.begin("workload.render")
		page, err := wk.ServeOneCtx(ctx)
		t.spans.end()
		if err != nil {
			return err
		}
		h = hashBody(page)
		t.streams[wk.ID()] = append(t.streams[wk.ID()], h)
		contextSwitch(wk)
		t.mix.tally(wk)
		return nil
	})
	t.spans.end()
	return h, err
}

// servePage is the cluster path without the sockets: ring owner, then
// that backend's cached handler (DoCached, fill renders the named page).
func (t *twin) servePage(ctx context.Context, page int) (uint64, cache.Outcome, error) {
	key := t.keys[page]
	t.spans.nextRequest()
	t.spans.begin("cache.ring_owner")
	owner, _ := t.ring.Owner(key)
	t.spans.end()
	id, err := strconv.Atoi(owner)
	if err != nil {
		return 0, cache.Bypass, fmt.Errorf("twin: ring has no owner for %s", key)
	}
	b := t.backends[id]
	t.spans.begin("serve.do")
	body, outcome, _, err := b.sched.DoCached(ctx, b.cache, key, func(wk *workload.Worker) ([]byte, error) {
		t.spans.begin("workload.render")
		page, _, err := wk.ServePageSpanCtx(ctx, page, false)
		t.spans.end()
		if err != nil {
			return nil, err
		}
		contextSwitch(wk)
		t.mix.tally(wk)
		return page, nil
	})
	t.spans.end()
	if err != nil {
		return 0, outcome, err
	}
	return hashBody(body), outcome, nil
}

// holdAll takes every worker of the GET / pool, indexed by worker id,
// and returns them with a release func that restores free-list order.
func (t *twin) holdAll() ([]*workload.Worker, func()) {
	p := t.backends[0].pool
	ws := make([]*workload.Worker, p.Size())
	for range ws {
		w := p.Acquire()
		ws[w.ID()] = w
	}
	return ws, func() {
		for _, w := range ws {
			p.Release(w)
		}
	}
}

// extend renders on, one goroutine per worker, until worker w's stream
// holds at least upto[w] positions.
func (t *twin) extend(upto []int) {
	ws, release := t.holdAll()
	defer release()
	var wg sync.WaitGroup
	for id, wk := range ws {
		wg.Add(1)
		go func(id int, wk *workload.Worker) {
			defer wg.Done()
			for len(t.streams[id]) < upto[id] {
				t.streams[id] = append(t.streams[id], hashBody(wk.ServeOne()))
				contextSwitch(wk)
			}
		}(id, wk)
	}
	wg.Wait()
}

// pageHash renders stream position pos of worker w directly through the
// app's page identity (the n-th request after warm-up is page
// serverWarmup+n), without advancing the stream.
func (t *twin) pageHash(w, pos int) (uint64, error) {
	ws, release := t.holdAll()
	defer release()
	body, _, err := ws[w].ServePageSpanCtx(context.Background(), serverWarmup+pos+1, false)
	if err != nil {
		return 0, err
	}
	return hashBody(body), nil
}

// pageTable renders the cluster's page universe once, on a pool of its
// own so the twin's meters stay untouched.
func pageTable(spec workloadSpec) ([]uint64, [][]byte, error) {
	pool, err := workload.NewPoolSharedSeed(1, vmConfig(spec.Config), spec.App, 1)
	if err != nil {
		return nil, nil, err
	}
	wk := pool.Acquire()
	defer pool.Release(wk)
	hashes := make([]uint64, clusterPages)
	bodies := make([][]byte, clusterPages)
	for n := range hashes {
		body, _, err := wk.ServePageSpanCtx(context.Background(), n, false)
		if err != nil {
			return nil, nil, err
		}
		hashes[n] = hashBody(body)
		bodies[n] = append([]byte(nil), body...)
	}
	return hashes, bodies, nil
}

// samplePages renders the next n pages of worker 0's stream and returns
// copies of their bodies.
func (t *twin) samplePages(n int) [][]byte {
	ws, release := t.holdAll()
	defer release()
	out := make([][]byte, n)
	for i := range out {
		body := ws[0].ServeOne()
		t.streams[0] = append(t.streams[0], hashBody(body))
		contextSwitch(ws[0])
		out[i] = append([]byte(nil), body...)
	}
	return out
}
