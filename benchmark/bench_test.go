package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 1, 5, 7, 3}, 5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its input %v -> %v", in, c.in)
			}
		}
	}
	if lo, hi := minMax([]float64{3, 9, 1}); lo != 1 || hi != 9 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
}

func TestPercentile(t *testing.T) {
	d := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n)
		}
		return out
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := percentile(d(42), 0.99); got != 42 {
		t.Errorf("one sample: %v", got)
	}
	if got := percentile(d(1, 2), 0.5); got != 1 {
		t.Errorf("p50 of two: %v", got)
	}
	if got := percentile(d(1, 2), 0.99); got != 2 {
		t.Errorf("p99 of two: %v", got)
	}
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i + 1)
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(hundred, q); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", q, got, want)
		}
	}
}

func TestWindowStats(t *testing.T) {
	w := time.Second
	// The reader was 10 ms late at the first boundary and 500 ms late at
	// the second: the windows follow the reader, so rates stay true.
	points := []procPoint{
		{at: rampTime + 10*time.Millisecond, steal: 100, total: 1000},
		{at: rampTime + w + w/2, serveCPU: 0.002, routerCPU: 0.001, steal: 103, total: 1300},
		{at: rampTime + 2*w, serveCPU: 0.003, routerCPU: 0.001, steal: 103, total: 1400},
	}
	var timed []sample
	add := func(end time.Duration, lat time.Duration, ok bool) {
		timed = append(timed, sample{end: end, lat: lat, ok: ok})
	}
	add(rampTime, 9, true)        // before the first point: ramp, discarded
	add(points[0].at, 1, true)    // window 0
	add(points[1].at-1, 3, true)  // window 0
	add(rampTime+w/2, 100, false) // failed: no latency sample
	add(points[1].at, 5, true)    // window 1
	add(points[2].at, 7, true)    // past the last window
	add(rampTime+w+w/4, 2, true)  // window 0, out of order
	ws := windowStats(timed, points, []float64{16, 17})
	if ws[0].samples != 3 || ws[1].samples != 1 {
		t.Fatalf("samples = %d, %d", ws[0].samples, ws[1].samples)
	}
	if want := 3 / 1.49; math.Abs(ws[0].reqPerS-want) > 1e-9 || ws[1].reqPerS != 2 {
		t.Errorf("req/s = %v, %v, want %v, 2", ws[0].reqPerS, ws[1].reqPerS, want)
	}
	if ws[0].p50ms != ms(2) || ws[0].p99ms != ms(3) {
		t.Errorf("window 0 p50 %v p99 %v", ws[0].p50ms, ws[0].p99ms)
	}
	if got := ws[0].cpuUs; math.Abs(got-1000) > 1e-9 {
		t.Errorf("window 0 cpu = %v us/req, want 1000", got)
	}
	if ws[0].rssMB != 16 || ws[1].rssMB != 17 {
		t.Errorf("rss = %v, %v", ws[0].rssMB, ws[1].rssMB)
	}
	if got := ws[1].routerCPUUs; got != 0 {
		t.Errorf("window 1 router cpu = %v, want 0", got)
	}
	if ws[0].steal != 0.01 || ws[1].steal != 0 {
		t.Errorf("steal = %v, %v, want 0.01, 0", ws[0].steal, ws[1].steal)
	}
}

func TestCalmWindows(t *testing.T) {
	mk := func(steals ...float64) []windowStat {
		ws := make([]windowStat, len(steals))
		for i, s := range steals {
			ws[i] = windowStat{steal: s, samples: i}
		}
		return ws
	}
	for _, c := range []struct {
		ws   []windowStat
		want []int // window indices, least stolen first
	}{
		{mk(0, 0.3, 0.01, 0.011, 0, 0.004), []int{0, 4, 5, 2}}, // every window up to calmSteal
		{mk(0.3, 0, 0.2, 0.1, 0.5), []int{1, 3, 2}},            // one calm: filled up to minCalm
		{mk(0.4, 0.2), []int{1, 0}},                            // fewer than minCalm windows in all
		{nil, nil},
	} {
		var got []int
		for _, w := range calmWindows(c.ws) {
			got = append(got, w.samples)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("calmWindows(%v) = windows %v, want %v", c.ws, got, c.want)
		}
	}
}

func TestParseHostTicks(t *testing.T) {
	steal, total, err := parseHostTicks("cpu  997694 0 182576 1062016 8299 0 45999 57915 0 0")
	if err != nil || steal != 57915 || total != 997694+182576+1062016+8299+45999+57915 {
		t.Errorf("parseHostTicks = %d, %d, %v", steal, total, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3 4 5 6 7", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, err := parseHostTicks(bad); err == nil {
			t.Errorf("parseHostTicks(%q): no error", bad)
		}
	}
}

func TestSpanSelfTimesTelescope(t *testing.T) {
	r := newSpanRecorder(8)
	for req := 0; req < 3; req++ {
		r.nextRequest()
		r.begin("root")
		r.begin("a")
		r.begin("a.inner")
		r.end()
		r.end()
		r.begin("b")
		r.end()
		r.end()
	}
	self := selfTimes(r.spans)
	sumByReq, rootByReq := map[int]int64{}, map[int]int64{}
	for i, s := range r.spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", i)
		}
		if self[i] < 0 {
			t.Errorf("span %d (%s) has negative self time %d", i, s.Name, self[i])
		}
		sumByReq[s.Req] += self[i]
		if s.Parent == -1 {
			rootByReq[s.Req] = s.End - s.Start
		} else if r.spans[s.Parent].Req != s.Req {
			t.Errorf("span %d's parent belongs to another request", i)
		}
	}
	if len(rootByReq) != 3 {
		t.Fatalf("%d requests, want 3", len(rootByReq))
	}
	for req, root := range rootByReq {
		if sumByReq[req] != root {
			t.Errorf("request %d: self times sum to %d, root lasts %d", req, sumByReq[req], root)
		}
	}
	// Fixed numbers: root 100, children 30 and 20, grandchild 10.
	fixed := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a.inner", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 70},
	}
	if got := selfTimes(fixed); got[0] != 50 || got[1] != 20 || got[2] != 10 || got[3] != 20 {
		t.Errorf("selfTimes = %v", got)
	}
	if m := medianSelfByName(fixed); m["root"] != 50 || m["a"] != 20 {
		t.Errorf("medianSelfByName = %v", m)
	}
	// Two workloads in one -trace-out file: ids stay unique, parents
	// still index their spans, requests do not merge.
	both := appendSpans(appendSpans(nil, "w1", r.spans), "w2", fixed)
	wantSelf := append(selfTimes(r.spans), selfTimes(fixed)...)
	for i, got := range selfTimes(both) {
		if s := both[i]; s.ID != i || got != wantSelf[i] || (s.Parent >= 0 && both[s.Parent].Req != s.Req) {
			t.Errorf("combined span %d: %+v, self %d, want id %d and self %d", i, s, got, i, wantSelf[i])
		}
	}
	if last := both[len(both)-1]; last.Workload != "w2" || last.Req != r.spans[len(r.spans)-1].Req+1 {
		t.Errorf("last combined span = %+v", last)
	}
	var nilRec *spanRecorder
	nilRec.nextRequest()
	nilRec.begin("x")
	nilRec.end() // a nil recorder records nothing and must not panic
}

func TestPageStreamSeeded(t *testing.T) {
	draw := func(seed int64) []int {
		src, err := workload.NewZipfKeys(seed, 1.0, clusterPages)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 2000)
		for i := range out {
			out[i] = src.Next()
			if out[i] < 0 || out[i] >= clusterPages {
				t.Fatalf("page %d outside the universe", out[i])
			}
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew %d then %d at position %d", a[i], b[i], i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 drew identical streams")
	}
}

const scrapeText = `# HELP phpserve_request_latency_seconds Request wall latency, queueing included.
# TYPE phpserve_request_latency_seconds histogram
phpserve_request_latency_seconds_bucket{le="0.001"} %d
phpserve_request_latency_seconds_bucket{le="+Inf"} %d
phpserve_request_latency_seconds_sum %g
phpserve_request_latency_seconds_count %d
`

func TestHistMeanFromTwoScrapes(t *testing.T) {
	parse := func(le, count int, sum float64) obs.HistogramSnapshot {
		fams, err := obs.ParsePromText(strings.NewReader(fmt.Sprintf(scrapeText, le, count, sum, count)))
		if err != nil {
			t.Fatal(err)
		}
		return findHist(fams, "phpserve_request_latency_seconds")
	}
	before, after := parse(90, 100, 0.050), parse(990, 1100, 0.300)
	mean, n := histMean(before, after)
	if n != 1000 || math.Abs(mean-0.00025) > 1e-15 {
		t.Errorf("histMean = %v over %d, want 0.00025 over 1000", mean, n)
	}
	if mean, n := histMean(after, after); mean != 0 || n != 0 {
		t.Errorf("no new observations: %v over %d", mean, n)
	}
	if mean, n := histMean(after, before); mean != 0 || n != 0 {
		t.Errorf("counter went backwards (restart): %v over %d", mean, n)
	}
	if h := findHist(nil, "absent"); h.Count != 0 {
		t.Errorf("absent family: %+v", h)
	}
}

func TestParseProc(t *testing.T) {
	line := "4242 (php serve) (x)) S 17 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 100 1 2 3"
	ticks, err := parseProcTicks(line)
	if err != nil || ticks != 300 {
		t.Errorf("parseProcTicks = %d, %v; want 300", ticks, err)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 2", "1 (x) S 2 3 4 5 6 7 8 9 10 11 12 x 14"} {
		if _, err := parseProcTicks(bad); err == nil {
			t.Errorf("parseProcTicks(%q) accepted", bad)
		}
	}
	pages, err := parseStatmRSS("54321 4096 800 300 0 2000 0\n")
	if err != nil || pages != 4096 {
		t.Errorf("parseStatmRSS = %d, %v", pages, err)
	}
	for _, bad := range []string{"", "54321", "54321 x"} {
		if _, err := parseStatmRSS(bad); err == nil {
			t.Errorf("parseStatmRSS(%q) accepted", bad)
		}
	}
	if _, err := cpuSeconds([]int{os.Getpid()}); err != nil {
		t.Errorf("own stat: %v", err)
	}
	if mb, err := rssMB([]int{os.Getpid()}); err != nil || mb <= 0 {
		t.Errorf("own RSS: %v MB, %v", mb, err)
	}
}

func TestClientReadsBothEncodings(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1024) // > net/http's chunking threshold
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.RequestURI() {
		case "/?page=3":
			w.Header().Set("X-Cache", "HIT")
			fmt.Fprint(w, "small")
		case "/big":
			w.Header().Set("X-Cache", "MISS")
			fmt.Fprint(w, big)
		case "/flush":
			fmt.Fprint(w, "a")
			w.(http.Flusher).Flush()
			fmt.Fprint(w, "bc")
		default:
			http.Error(w, "nope", http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	// All on one keep-alive connection, so a misread body desynchronises
	// the next response.
	for _, want := range []struct {
		target string
		status int
		cache  int
		body   string
	}{
		{"/?page=3", 200, cacheHit, "small"},
		{"/big", 200, cacheMiss, big},
		{"/flush", 200, cacheNone, "abc"},
		{"/other", 503, cacheNone, "nope\n"},
		{"/?page=3", 200, cacheHit, "small"},
	} {
		resp, err := c.get(want.target)
		if err != nil {
			t.Fatalf("%s: %v", want.target, err)
		}
		if resp.status != want.status || resp.cache != want.cache || string(resp.body) != want.body {
			t.Errorf("%s: status %d cache %d body %d bytes; want %d, %d, %d bytes",
				want.target, resp.status, resp.cache, len(resp.body), want.status, want.cache, len(want.body))
		}
	}
	if hashBody([]byte(big)) != hashBody([]byte(big)) || hashBody([]byte("a")) == hashBody([]byte("b")) {
		t.Error("hashBody is not a function of the bytes")
	}
}

func TestPeriod(t *testing.T) {
	seq := func(n, p int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i%p) + 100
		}
		return out
	}
	if got := period(seq(500, 64)); got != 64 {
		t.Errorf("period = %d, want 64", got)
	}
	if got := period(seq(100, 64)); got != 0 {
		t.Errorf("fewer than two periods seen: got %d, want 0", got)
	}
	distinct := make([]uint64, 300)
	for i := range distinct {
		distinct[i] = uint64(i)
	}
	if got := period(distinct); got != 0 {
		t.Errorf("distinct stream has period %d", got)
	}
	if got := period(nil); got != 0 {
		t.Errorf("empty stream has period %d", got)
	}
}

func TestMatchPrefixes(t *testing.T) {
	// Worker 0 and worker 1 render different streams; hashes repeat
	// within a stream (period 7 and 5) as WordPress pages do.
	ref := func(w, j int) uint64 { return uint64(1000*w + j%(7-2*w)) }
	observe := func(k0, k1 int) []uint64 {
		var out []uint64
		for j := 0; j < k1; j++ { // any arrival order
			out = append(out, ref(1, j))
		}
		for j := 0; j < k0; j++ {
			out = append(out, ref(0, j))
		}
		return out
	}
	for _, split := range [][2]int{{50, 50}, {53, 47}, {41, 59}, {0, 0}, {1, 0}} {
		obs := observe(split[0], split[1])
		k0, bad := matchPrefixes(obs, ref, 30)
		if bad != 0 {
			t.Errorf("split %v: %d mismatches on a clean pass", split, bad)
		}
		// Periodic streams admit several exact splits; the one found must
		// reproduce the observed multiset, which bad == 0 asserts.
		if k0 < 0 || k0 > len(obs) {
			t.Errorf("split %v: k0 = %d out of range", split, k0)
		}
	}
	// Identical non-repeating streams (the blog script).
	same := func(w, j int) uint64 { return uint64(j) }
	var obs []uint64
	for j := 0; j < 60; j++ {
		obs = append(obs, same(0, j))
	}
	for j := 0; j < 40; j++ {
		obs = append(obs, same(1, j))
	}
	if k0, bad := matchPrefixes(obs, same, 30); bad != 0 || (k0 != 60 && k0 != 40) {
		t.Errorf("identical streams: k0 %d, %d mismatches", k0, bad)
	}
	// One wrong body (a recycled buffer, a wrong cache key) is one failure.
	obs[10] = 999999
	if _, bad := matchPrefixes(obs, same, 30); bad != 1 {
		t.Errorf("one corrupted body counted as %d mismatches", bad)
	}
	// A skipped position is not a prefix.
	shifted := func(w, j int) uint64 { return ref(w, j) + 5000 + uint64(j)*10000 }
	obs = obs[:0]
	for j := 0; j < 50; j++ {
		if j != 20 {
			obs = append(obs, shifted(0, j))
		}
		obs = append(obs, shifted(1, j))
	}
	if _, bad := matchPrefixes(obs, shifted, 30); bad == 0 {
		t.Error("a stream with a hole matched as a prefix")
	}
}

func TestSharesSumToOne(t *testing.T) {
	for _, spec := range workloads {
		m := map[string]float64{
			"workload.render_us":      1000,
			"core.straccel.ns_per_kb": 7000, "strlib.ns_per_kb": 500, "core.regexaccel.ns_per_kb": 3000, "regex.ns_per_kb": 1800,
			"core.hashtable.get_ns": 50, "core.hashtable.set_ns": 55, "hashmap.get_ns": 57, "hashmap.set_ns": 58,
			"core.heapmgr.malloc_free_ns": 150, "heap.malloc_free_ns": 100,
			"sim.charge_ns": 30, "trace.record_ns": 7, "arena.reset_ns": 35,
		}
		var snap simSnapshot
		snap.fleet.kinds[trace.KindHashGet], snap.fleet.kinds[trace.KindHashSet] = 200*exactRequests, 100*exactRequests
		snap.fleet.kinds[trace.KindAlloc], snap.fleet.kinds[trace.KindFree] = 350*exactRequests, 350*exactRequests
		snap.fleet.misses = exactRequests / 4
		snap.charges = 1500 * exactRequests
		snap.mix.strBytes[0] = (100 << 10) * exactRequests
		snap.mix.regexBytes = (1 << 10) * exactRequests
		out := shares(spec, snap, m)
		sum := 0.0
		for name, v := range out {
			if !strings.HasPrefix(name, "share.") {
				t.Errorf("%s: unexpected key %s", spec.Name, name)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v", spec.Name, sum)
		}
		accel := spec.Config == "accelerated"
		if (out["share.core.straccel"] > 0) != accel || (out["share.strlib"] > 0) == accel {
			t.Errorf("%s: string share attributed to the wrong layer: %v", spec.Name, out)
		}
		// 100 KB at 7000 ns/KB is 0.7 of a 1000 us render; the cluster
		// renders only its misses, a quarter of the requests.
		if want := 0.7 * map[bool]float64{false: 1, true: 4}[spec.Cluster]; accel && math.Abs(out["share.core.straccel"]-want) > 1e-12 {
			t.Errorf("%s: share.core.straccel = %v, want %v", spec.Name, out["share.core.straccel"], want)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json must name exactly what the program reports.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if run := time.Duration(bj.RunSeconds) * time.Second; run < 15*time.Second || run%window != 0 {
		t.Errorf("run_seconds = %d: want whole windows of %v, 15 s at least", bj.RunSeconds, window)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, spec %s", i, bj.Workloads[i], w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, spec has %d", len(bj.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, spec has %d (max 128)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, spec %+v", i, got, m)
		}
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer name %q: duplicate or too long", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestQuartileSpread(t *testing.T) {
	// Values checked against Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{5}, 0},
		{[]float64{10, 12}, (12.5 - 9.5) / 11},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{100, 104, 98, 101, 130, 99, 102, 97, 103, 100}, (103.25 - 98.75) / 100.5},
	} {
		if got := quartileSpread(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestCompareSides(t *testing.T) {
	// One workload; a side is three sets with the given req_per_s values.
	side := func(cycles float64, failed int, rps ...float64) [][]*result {
		var sets [][]*result
		for _, v := range rps {
			e := map[string]float64{failRatio.Name: float64(failed) / 10}
			for _, m := range endToEnd {
				e[m.Name] = 100
			}
			e["req_per_s"] = v
			sets = append(sets, []*result{{Workload: "wp_accel", Attempted: 10, Failed: failed, EndToEnd: e,
				PerLayer: map[string]float64{"sim.cycles_per_req": cycles, "client.rtt_us": v}}})
		}
		return sets
	}
	for _, c := range []struct {
		name     string
		a, b     [][]*result
		lines    int
		failures int
	}{
		{"10% apart, inside the bound", side(5, 0, 1000, 1010, 990), side(5, 0, 900, 910, 890), 0, 0},
		{"30% apart, steady sides", side(5, 0, 1000, 1010, 990), side(5, 0, 700, 710, 690), 1, 1},
		{"30% apart, one side 40% wide: unresolved", side(5, 0, 1000, 1010, 990), side(5, 0, 700, 560, 840), 1, 0},
		{"a simulated number differs in one set", side(5, 0, 1000, 1000, 1000), append(side(5, 0, 1000, 1000), side(5.000001, 0, 1000)...), 1, 1},
		{"a request failed", side(5, 0, 1000, 1000, 1000), append(side(5, 0, 1000, 1000), side(5, 1, 1000)...), 2, 2},
	} {
		lines, failures := compareSides(c.a, c.b)
		if len(lines) != c.lines || failures != c.failures {
			t.Errorf("%s: %d failures, lines %q; want %d failures in %d lines", c.name, failures, lines, c.failures, c.lines)
		}
	}
}

// TestSmoke runs every workload end to end with 1 s windows: servers
// built and spawned, bodies verified, layers reported, clean drain.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the servers; skipped with -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bins, err := buildBinaries(ctx, root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range workloads {
		res, err := runWorkload(ctx, bins, spec, runOptions{seed: 5, seconds: 2, window: time.Second, layers: true})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.correct() {
			t.Errorf("%s: %d of %d failed, problems %v", spec.Name, res.Failed, res.Attempted, res.Problems)
		}
		for _, m := range endToEnd {
			if v := res.EndToEnd[m.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", spec.Name, m.Name, v)
			}
		}
		sum := 0.0
		for name, v := range res.PerLayer {
			if strings.HasPrefix(name, "share.") {
				sum += v
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", spec.Name, sum)
		}
		for name, wantOn := range map[string]string{
			"phprouter.hop_self_us":   "cluster_cache",
			"php.run_bytecode_us":     "script_blog",
			"strlib.ns_per_kb":        "wp_soft",
			"cache.getorfill_fill_ns": "cluster_cache",
		} {
			if on := res.PerLayer[name] != 0; on != (spec.Name == wantOn) {
				t.Errorf("%s: %s = %v", spec.Name, name, res.PerLayer[name])
			}
		}
		if (res.PerLayer["core.straccel.ns_per_kb"] != 0) == (spec.Name == "wp_soft") {
			t.Errorf("%s: core.straccel.ns_per_kb = %v", spec.Name, res.PerLayer["core.straccel.ns_per_kb"])
		}
		if len(res.Spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", spec.Name)
		}
	}
	if left := strays(bins); len(left) > 0 {
		t.Errorf("server processes left behind: %v", left)
	}
}
