package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/workload"
)

const (
	rampTime = 2 * time.Second
	window   = 2 * time.Second        // one timed window; results with another length do not compare
	rssEvery = 100 * time.Millisecond // RSS sampling period during the timed pass

	// A window is calm when the hypervisor took no more than calmSteal of
	// the guest's CPU time in it (steal column of /proc/stat). What a
	// stolen window measures is the neighbours, so the metrics are medians
	// over the calm windows only; when fewer than minCalm are calm, the
	// minCalm least-stolen ones are used so that every run has a result.
	calmSteal = 0.01
	minCalm   = 3
)

// runOptions are the knobs of one run; all workloads get the same ones.
type runOptions struct {
	seed    int64
	seconds int           // length of the timed pass
	window  time.Duration // the window constant; only the smoke test shortens it
	layers  bool          // scrape, twin cross-check, traced pass, unit costs
}

// windowStat is one timed window's host metrics.
type windowStat struct {
	reqPerS, p50ms, p99ms, cpuUs float64
	serveCPUUs, routerCPUUs      float64
	rssMB                        float64 // peak of the sampled RSS sum
	steal                        float64 // share of the guest's CPU time the hypervisor took
	samples                      int
}

// procPoint is what the /proc reader sees at one window boundary.
type procPoint struct {
	at                  time.Duration // since the pass began; a late reader moves the boundary, not the rates
	serveCPU, routerCPU float64       // seconds, summed over the processes
	steal, total        uint64        // host ticks, all CPUs
}

// result is everything one run of one workload measured.
type result struct {
	Workload  string
	Seed      int64
	Attempted int
	Failed    int
	Problems  []string // why Correct is false
	BuildTime time.Duration
	Windows   []windowStat
	Calm      []windowStat // the windows the metrics are taken from, least stolen first
	EndToEnd  map[string]float64
	PerLayer  map[string]float64 // nil without layers
	Spans     []span
}

// windowMetrics are the end-to-end metrics reported as the median of
// their values in the calm windows.
var windowMetrics = map[string]func(windowStat) float64{
	"req_per_s":             func(w windowStat) float64 { return w.reqPerS },
	"p50_ms":                func(w windowStat) float64 { return w.p50ms },
	"server_cpu_us_per_req": func(w windowStat) float64 { return w.cpuUs },
	"peak_rss_mb":           func(w windowStat) float64 { return w.rssMB },
}

// column is one field of every calm window.
func (r *result) column(f func(windowStat) float64) []float64 {
	out := make([]float64, len(r.Calm))
	for i, w := range r.Calm {
		out[i] = f(w)
	}
	return out
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload performs the whole run shape for one workload: reference
// twin, repeated setup, exact pass, ramp, timed windows, and (with
// layers) the scrapes, the traced pass and the unit costs; then a clean
// drain. An error means the run could not be measured at all; wrong
// outputs are reported in the result instead.
func runWorkload(ctx context.Context, bins binaries, spec workloadSpec, opt runOptions) (*result, error) {
	res := &result{Workload: spec.Name, Seed: opt.seed, BuildTime: bins.buildTime, EndToEnd: map[string]float64{}}

	// --- reference twin ------------------------------------------------
	// The cluster's bodies come from the page table; its twin is only
	// needed for the layers (simulated clock, cache counts, traced pass).
	var tw *twin
	var err error
	if !spec.Cluster || opt.layers {
		if tw, err = newTwin(spec, opt.seed); err != nil {
			return nil, err
		}
	}
	if opt.layers {
		tw.mix = &opMix{seen: map[*workload.Worker]int64{}}
	}
	var (
		pages      *workload.ZipfKeys // the clients' shared page stream (safe for concurrent use)
		targets    []string
		pageHashes []uint64
		pageBodies [][]byte
		exactPages []int
		exactRef   = make([]uint64, exactRequests)
	)
	if spec.Cluster {
		if pages, err = workload.NewZipfKeys(opt.seed, 1.0, clusterPages); err != nil {
			return nil, err
		}
		targets = pageTargets(clusterPages)
		if pageHashes, pageBodies, err = pageTable(spec); err != nil {
			return nil, err
		}
		exactPages = make([]int, exactRequests)
		for i := range exactPages {
			exactPages[i] = pages.Next()
		}
	}
	for i := range exactRef {
		switch {
		case !spec.Cluster:
			exactRef[i], err = tw.serveRoot(ctx)
		case opt.layers:
			exactRef[i], _, err = tw.servePage(ctx, exactPages[i])
		}
		if err != nil {
			return nil, fmt.Errorf("twin replay: %w", err)
		}
	}
	var snap simSnapshot
	if opt.layers {
		if snap, err = tw.simSnapshot(); err != nil {
			return nil, err
		}
		tw.mix = nil // only the exact pass is tallied
	}
	var oracle *streamOracle
	if !spec.Cluster {
		oracle = newStreamOracle(tw)
	}

	// --- setup, several times -------------------------------------------
	var fl *fleet
	defer func() {
		if fl != nil {
			fl.kill()
		}
	}()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if fl, err = startFleet(ctx, bins, spec, opt.seed); err != nil {
			return nil, err
		}
		setups = append(setups, fl.setup.Seconds())
		if i < setupRepeats-1 {
			err := fl.stop()
			fl = nil
			if err != nil {
				return nil, fmt.Errorf("setup %d: %w", i, err)
			}
		}
	}
	res.EndToEnd["setup_s"] = median(setups)
	servePids := pidsOf(fl.serve)
	var routerPids []int
	if fl.router != nil {
		routerPids = pidsOf([]*proc{fl.router})
	}
	allPids := append(append([]int(nil), servePids...), routerPids...)

	// --- exact pass -------------------------------------------------------
	var before, afterExact scrape
	if opt.layers {
		if before, err = scrapeFleet(fl); err != nil {
			return nil, err
		}
	}
	exact := make([]sample, 0, exactRequests)
	i := 0
	err = driveClient(fl.front, targets, time.Now(), func() int {
		if i == exactRequests || ctx.Err() != nil {
			return -2
		}
		i++
		if spec.Cluster {
			return exactPages[i-1]
		}
		return -1
	}, func(s sample) { exact = append(exact, s) })
	if err != nil {
		return nil, fmt.Errorf("exact pass: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Attempted += len(exact)
	for i, s := range exact {
		want := exactRef[i]
		if spec.Cluster {
			want = pageHashes[s.page]
		}
		if !s.ok || s.hash != want {
			res.Failed++
		}
	}
	if opt.layers {
		if afterExact, err = scrapeFleet(fl); err != nil {
			return nil, err
		}
		if err := snap.checkAgainst(afterExact); err != nil {
			res.problem("exact pass: %v", err)
		}
	}

	// --- ramp + timed windows ---------------------------------------------
	nWin := int(time.Duration(opt.seconds) * time.Second / opt.window)
	if nWin < 1 {
		nWin = 1
	}
	total := rampTime + time.Duration(nWin)*opt.window
	var beforeTimed scrape
	if opt.layers {
		if beforeTimed, err = scrapeFleet(fl); err != nil {
			return nil, err
		}
	}
	perClient := make([][]sample, timedClients)
	points := make([]procPoint, nWin+1)
	peakRSS := make([]float64, nWin)
	var procErr error
	var wg sync.WaitGroup
	clientErrs := make([]error, timedClients)
	start := time.Now()
	selfCPU0 := selfCPUSeconds()
	wg.Add(1)
	go func() { // /proc reader: RSS every rssEvery, CPU and steal at window boundaries
		defer wg.Done()
		var peak float64
		for k := 0; k <= nWin; {
			boundary := start.Add(rampTime + time.Duration(k)*opt.window)
			time.Sleep(min(rssEvery, time.Until(boundary)))
			rss, e0 := rssMB(allPids)
			peak = max(peak, rss)
			var e1, e2, e3 error
			if !time.Now().Before(boundary) {
				p := &points[k]
				p.at = time.Since(start)
				p.serveCPU, e1 = cpuSeconds(servePids)
				p.routerCPU, e2 = cpuSeconds(routerPids)
				p.steal, p.total, e3 = hostTicks()
				if k > 0 {
					peakRSS[k-1] = peak
				}
				peak = 0
				k++
			}
			if err := errors.Join(e0, e1, e2, e3); err != nil && procErr == nil {
				procErr = err
			}
		}
	}()
	for c := 0; c < timedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples := make([]sample, 0, 1<<17)
			clientErrs[c] = driveClient(fl.front, targets, start, func() int {
				if time.Since(start) >= total || ctx.Err() != nil {
					return -2
				}
				if spec.Cluster {
					return pages.Next()
				}
				return -1
			}, func(s sample) { samples = append(samples, s) })
			perClient[c] = samples
		}(c)
	}
	wg.Wait()
	busy := (selfCPUSeconds() - selfCPU0) / time.Since(start).Seconds()
	if err := errors.Join(append(clientErrs, procErr, ctx.Err())...); err != nil {
		return nil, fmt.Errorf("timed pass: %w", err)
	}
	var afterTimed scrape
	if opt.layers {
		if afterTimed, err = scrapeFleet(fl); err != nil {
			return nil, err
		}
	}

	// Judge the bodies, then slice the pass into windows.
	var timed []sample
	for _, s := range perClient {
		timed = append(timed, s...)
	}
	res.Attempted += len(timed)
	var observed []uint64
	for _, s := range timed {
		switch {
		case !s.ok:
			res.Failed++
		case spec.Cluster:
			if s.hash != pageHashes[s.page] {
				res.Failed++
			}
		default:
			observed = append(observed, s.hash)
		}
	}
	if oracle != nil {
		bad, err := oracle.checkPass(observed)
		if err != nil {
			res.problem("timed pass: %v", err)
		}
		res.Failed += bad
	}
	res.Windows = windowStats(timed, points, peakRSS)
	res.Calm = calmWindows(res.Windows)
	for name, f := range windowMetrics {
		res.EndToEnd[name] = median(res.column(f))
	}
	if busy > busyFracLimit {
		return nil, fmt.Errorf("client.busy_frac %.2f > %.1f: the generator, not the server, is the limit; refusing to report", busy, busyFracLimit)
	}

	// --- layers -----------------------------------------------------------
	if opt.layers {
		m := snap.metrics(exactRequests)
		socketResiduals(m, spec, exact, before, afterExact)
		m["p99_ms"] = median(res.column(func(w windowStat) float64 { return w.p99ms }))
		m["phpserve.cpu_us_per_req"] = median(res.column(func(w windowStat) float64 { return w.serveCPUUs }))
		m["phprouter.cpu_us_per_req"] = median(res.column(func(w windowStat) float64 { return w.routerCPUUs }))
		m["phpserve.allocs_per_req"] = afterTimed.gaugeWeighted(beforeTimed, "phpserve_go_allocs_per_request")
		m["phpserve.alloc_bytes_per_req"] = afterTimed.gaugeWeighted(beforeTimed, "phpserve_go_alloc_bytes_per_request")
		m["serve.shed_total"] = afterTimed.shedTotal()
		m["client.busy_frac"] = busy
		m["host.steal_frac"] = float64(points[nWin].steal-points[0].steal) / float64(points[nWin].total-points[0].total)
		m["host.calm_windows"] = float64(len(res.Calm))

		// Traced pass: the same in-process serve path in alternating
		// blocks without and with spans, so that both see the same host
		// conditions; the throughput difference is what tracing costs.
		spans := newSpanRecorder(4 * tracedRequests)
		var plain, traced time.Duration
		const blocks = 4
		for blk := 0; blk < 2*blocks; blk++ {
			n, spent := tracedRequests/2/blocks, &plain
			tw.spans = nil
			if blk%2 == 1 {
				n, spent, tw.spans = tracedRequests/blocks, &traced, spans
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if spec.Cluster {
					_, _, err = tw.servePage(ctx, pages.Next())
				} else {
					_, err = tw.serveRoot(ctx)
				}
				if err != nil {
					return nil, fmt.Errorf("traced pass: %w", err)
				}
			}
			*spent += time.Since(t0)
		}
		tw.spans, res.Spans = nil, spans.spans
		// 1 - traced rate / untraced rate.
		m["trace_overhead_frac"] = 1 - (tracedRequests/traced.Seconds())/(tracedRequests/2/plain.Seconds())
		self := medianSelfByName(res.Spans)
		m["workload.render_us"] = self["workload.render"] / 1e3
		m["serve.do_self_us"] = self["serve.do"] / 1e3

		if !spec.Cluster {
			// Unit costs run over this workload's own pages.
			pageBodies = tw.samplePages(8)
		}
		costs, err := unitCosts(spec, tw, snap, pageBodies[:8])
		if err != nil {
			return nil, err
		}
		for k, v := range costs {
			m[k] = v
		}
		for k, v := range shares(spec, snap, m) {
			m[k] = v
		}
		res.PerLayer = m
	}

	res.EndToEnd[failRatio.Name] = float64(res.Failed) / float64(res.Attempted)

	// --- clean drain ------------------------------------------------------
	err = fl.stop()
	fl = nil
	if err != nil {
		res.problem("drain: %v", err)
	}
	if err := reapStrays(bins); err != nil {
		res.problem("%v", err)
	}
	return res, nil
}

// windowStats slices the timed pass into the windows between consecutive
// points (the first point ends the ramp), by completion time.
func windowStats(timed []sample, points []procPoint, peakRSS []float64) []windowStat {
	nWin := len(points) - 1
	lats := make([][]time.Duration, nWin)
	for _, s := range timed {
		// k is the last point at or before the sample's completion.
		k := sort.Search(len(points), func(i int) bool { return points[i].at > s.end }) - 1
		if s.ok && k >= 0 && k < nWin {
			lats[k] = append(lats[k], s.lat)
		}
	}
	out := make([]windowStat, nWin)
	for k, l := range lats {
		sortDurations(l)
		a, b := points[k], points[k+1]
		n := float64(len(l))
		w := windowStat{samples: len(l), rssMB: peakRSS[k], reqPerS: n / (b.at - a.at).Seconds(), p50ms: ms(percentile(l, 0.50)), p99ms: ms(percentile(l, 0.99))}
		if n > 0 {
			w.serveCPUUs = (b.serveCPU - a.serveCPU) * 1e6 / n
			w.routerCPUUs = (b.routerCPU - a.routerCPU) * 1e6 / n
			w.cpuUs = w.serveCPUUs + w.routerCPUUs
		}
		if b.total > a.total {
			w.steal = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
		out[k] = w
	}
	return out
}

// calmWindows picks the windows the metrics are taken from: those with
// steal of at most calmSteal, or the minCalm least-stolen ones when fewer
// qualify. They come back least stolen first.
func calmWindows(ws []windowStat) []windowStat {
	s := append([]windowStat(nil), ws...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	calm := sort.Search(len(s), func(i int) bool { return s[i].steal > calmSteal })
	return s[:max(calm, min(minCalm, len(s)))]
}

// socketResiduals fills the source-A metrics of the exact pass from the
// two scrapes around it and the client's own clock.
func socketResiduals(m map[string]float64, spec workloadSpec, exact []sample, before, after scrape) {
	var sum time.Duration
	var hit, miss []time.Duration
	for _, s := range exact {
		sum += s.lat
		switch s.cache {
		case cacheHit:
			hit = append(hit, s.lat)
		case cacheMiss:
			miss = append(miss, s.lat)
		}
	}
	rtt := us(sum) / float64(len(exact))
	seen, _ := histMean(before.hist("phpserve_request_latency_seconds"), after.hist("phpserve_request_latency_seconds"))
	wait, _ := histMean(before.hist("phpserve_queue_wait_seconds"), after.hist("phpserve_queue_wait_seconds"))
	m["client.rtt_us"] = rtt
	m["phpserve.seen_us"] = seen * 1e6
	m["serve.queue_wait_us"] = wait * 1e6
	upstream := rtt
	if spec.Cluster {
		name := "phprouter_backend_latency_seconds"
		hop, _ := histMean(findHist(before.router, name), findHist(after.router, name))
		upstream = hop * 1e6
		m["phprouter.hop_self_us"] = upstream - seen*1e6
		m["phprouter.front_self_us"] = rtt - upstream
		sortDurations(hit)
		sortDurations(miss)
		m["cache.hit_p50_us"] = us(percentile(hit, 0.5))
		m["cache.miss_p50_us"] = us(percentile(miss, 0.5))
	}
	m["phpserve.http_self_us"] = upstream - seen*1e6
}
