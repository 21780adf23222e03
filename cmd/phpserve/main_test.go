package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/workload"
)

// logLine decodes the access-log fields these tests read.
type logLine struct {
	Request   uint64             `json:"request"`
	Worker    int                `json:"worker"`
	Status    int                `json:"status"`
	Outcome   string             `json:"outcome"`
	Sampled   bool               `json:"sampled"`
	Cycles    float64            `json:"cycles"`
	Breakdown map[string]float64 `json:"cycles_by_category"`
}

// statsResponse is the decode shape of /stats these tests read. (The
// server's stats type only encodes: its ordered vectors marshal as JSON
// objects.)
type statsResponse struct {
	App                string             `json:"app"`
	Config             string             `json:"config"`
	Workers            int                `json:"workers"`
	Requests           int64              `json:"requests"`
	SampledSpans       int64              `json:"sampled_spans"`
	ResponseBytes      int64              `json:"response_bytes"`
	RequestsPerSec     float64            `json:"requests_per_sec"`
	LatencyP50Us       int64              `json:"latency_p50_us"`
	LatencyP95Us       int64              `json:"latency_p95_us"`
	LatencyP99Us       int64              `json:"latency_p99_us"`
	LatencyMeanUs      int64              `json:"latency_mean_us"`
	SimCycles          float64            `json:"sim_cycles"`
	CyclesPerRequest   float64            `json:"cycles_per_request"`
	SimCategoryCycles  map[string]float64 `json:"sim_category_cycles"`
	SimCategoryShare   map[string]float64 `json:"sim_category_share"`
	RegexCacheHitRatio float64            `json:"regex_cache_hit_ratio"`
}

// testConfig is a warmed wordpress server with a roomy admission queue,
// no deadline and a tree ring. sampleRate 1 profiles every request;
// logW may be nil.
func testConfig(workers, warmup int, sampleRate float64, logW io.Writer) serve.ServerConfig {
	return serve.ServerConfig{
		App: "wordpress", Core: "accelerated", Workers: workers, Seed: 1,
		Warmup: warmup, CtxSwitchEvery: 8, QueueDepth: 64,
		SampleRate: sampleRate, AccessLog: logW, TreeRing: 64, Backend: -1,
	}
}

// newTestServer builds the server c describes, the way phpserve does.
func newTestServer(t *testing.T, c serve.ServerConfig) *serve.Server {
	t.Helper()
	s, err := serve.NewServer(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testServer is newTestServer(testConfig(...)).
func testServer(t *testing.T, workers, warmup int, sampleRate float64, logW io.Writer) *serve.Server {
	t.Helper()
	return newTestServer(t, testConfig(workers, warmup, sampleRate, logW))
}

// healthzResponse is the decode shape of /healthz these tests read.
type healthzResponse struct {
	Status     string `json:"status"`
	Ready      bool   `json:"ready"`
	Backend    string `json:"backend"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	QueueLimit int    `json:"queue_limit"`
}

func TestServeConcurrentRequests(t *testing.T) {
	var logBuf bytes.Buffer
	s := testServer(t, 4, 2, 1, &logBuf)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients, perClient = 8, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(ts.URL + "/")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
				if len(body) == 0 || !strings.Contains(string(body), "<") {
					t.Errorf("response does not look like a page: %q", string(body)[:min(64, len(body))])
				}
				// Operator reads race the renders and one another.
				op, err := http.Get(ts.URL + []string{"/stats", "/metrics", "/profilez"}[(c+i)%3])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, op.Body)
				op.Body.Close()
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != clients*perClient {
		t.Errorf("stats requests = %d, want %d", st.Requests, clients*perClient)
	}
	if st.SampledSpans != st.Requests {
		t.Errorf("sample rate 1: sampled %d of %d", st.SampledSpans, st.Requests)
	}
	if st.Workers != 4 || st.App != "wordpress" || st.Config != "accelerated" {
		t.Errorf("stats header wrong: %+v", st)
	}
	if st.SimCycles <= 0 || st.CyclesPerRequest <= 0 {
		t.Errorf("no simulated cost recorded: %+v", st)
	}
	if st.LatencyP50Us <= 0 || st.LatencyP50Us > st.LatencyP95Us || st.LatencyP95Us > st.LatencyP99Us || st.LatencyMeanUs <= 0 {
		t.Errorf("latency estimates out of order: %+v", st)
	}
	if st.ResponseBytes <= 0 {
		t.Errorf("no response bytes counted")
	}
	for _, cat := range []string{"hash", "heap", "string", "regex"} {
		if st.SimCategoryCycles[cat] <= 0 {
			t.Errorf("category %s has no cycles: %v", cat, st.SimCategoryCycles)
		}
	}
	var shareSum float64
	for _, v := range st.SimCategoryShare {
		shareSum += v
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("category shares sum to %v, want 1", shareSum)
	}
	if st.RegexCacheHitRatio <= 0 || st.RegexCacheHitRatio > 1 {
		t.Errorf("regex cache hit ratio = %v", st.RegexCacheHitRatio)
	}

	// Every request was sampled, so the access log must hold one valid
	// JSON line per request with an attribution breakdown.
	lines := 0
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var e logLine
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("access log line %d: %v", lines, err)
		}
		if !e.Sampled || e.Cycles <= 0 || len(e.Breakdown) == 0 {
			t.Errorf("access log entry missing attribution: %+v", e)
		}
		if e.Worker < 0 || e.Worker >= 4 || e.Request == 0 {
			t.Errorf("access log identity wrong: %+v", e)
		}
		lines++
	}
	if lines != clients*perClient {
		t.Errorf("access log has %d lines, want %d", lines, clients*perClient)
	}
}

// TestStatsZeroRequests is the NaN/Inf regression test: a freshly
// started (even unwarmed) server must emit valid, finite JSON from
// /stats before it has measured a single request.
func TestStatsZeroRequests(t *testing.T) {
	s := testServer(t, 2, 0, 0.01, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "NaN") || strings.Contains(string(body), "Inf") {
		t.Fatalf("/stats emitted non-finite values: %s", body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("zero-request /stats is not valid JSON: %v\n%s", err, body)
	}
	if st.Requests != 0 || st.CyclesPerRequest != 0 || st.RequestsPerSec < 0 {
		t.Errorf("zero-request stats inconsistent: %+v", st)
	}
	for k, v := range st.SimCategoryShare {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("share %s non-finite after decode: %v", k, v)
		}
	}
}

var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)

// TestMetricsEndpoint scrapes /metrics from a live server under a small
// pooled workload and validates the Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, 2, 2, 1, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 6; i++ {
		resp, err := http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.HasSuffix(text, "\n") {
		t.Errorf("exposition must end with a newline")
	}

	// Every non-comment line must be a well-formed sample line.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed metric line: %q", line)
		}
	}

	for _, want := range []string{
		`phpserve_requests_total{app="wordpress",config="accelerated"} 6`,
		`phpserve_sim_cycles_total{category="hash"}`,
		`phpserve_sim_cycles_total{category="heap"}`,
		`phpserve_sim_cycles_total{category="string"}`,
		`phpserve_sim_cycles_total{category="regex"}`,
		`phpserve_request_latency_seconds_bucket{le="+Inf"} 6`,
		`phpserve_request_latency_seconds_count 6`,
		`phpserve_workers 2`,
		`phpserve_hashtable_hit_ratio`,
		`phpserve_hashmap_rebuilds_total`,
		`phpserve_regex_cache_hit_ratio`,
		`phpserve_accel_cycles_total{accel="hash-table"}`,
		`phpserve_trace_events_total{kind="hash-get"}`,
		`# TYPE phpserve_request_latency_seconds histogram`,
		`# TYPE phpserve_requests_total counter`,
		`# TYPE phpserve_workers gauge`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Histogram buckets must be cumulative (non-decreasing).
	var last float64 = -1
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "phpserve_request_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative: %q after %v", line, last)
		}
		last = v
	}

	// Per-category cycle counters from /metrics must agree with /stats.
	if !strings.Contains(text, "phpserve_sim_uops_total") {
		t.Errorf("missing uops counter")
	}

	// The histogram is the one latency record: it counts every request.
	fams, err := obs.ParsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if count, requests := obs.FindFamily(fams, "phpserve_request_latency_seconds").Histogram().Count,
		obs.FindFamily(fams, "phpserve_requests_total").Sum(); float64(count) != requests || requests != 6 {
		t.Errorf("phpserve_request_latency_seconds_count %d, phpserve_requests_total %g: want both 6", count, requests)
	}
}

// TestMetricsZeroRequests: a cold scrape must still be valid exposition
// (zero-sample series).
func TestMetricsZeroRequests(t *testing.T) {
	s := testServer(t, 1, 0, 0.01, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if !strings.Contains(text, "phpserve_request_latency_seconds_count 0") {
		t.Errorf("zero-sample histogram missing count 0:\n%s", text)
	}
	if strings.Contains(text, "NaN") {
		t.Errorf("cold scrape emitted NaN:\n%s", text)
	}
}

func TestPprofGated(t *testing.T) {
	c := testConfig(1, 0, 0, nil)
	ts := httptest.NewServer(newTestServer(t, c).Handler())
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: status %d, want 404", resp.StatusCode)
	}
	ts.Close()

	c.Pprof = http.DefaultServeMux
	ts = httptest.NewServer(newTestServer(t, c).Handler())
	defer ts.Close()
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof enabled: status %d", resp.StatusCode)
	}
}

func TestNotFoundAndHealthz(t *testing.T) {
	s := testServer(t, 1, 1, 0, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// /tierz was folded into /stats' tier object and answers like any
	// unknown path.
	for _, path := range []string{"/nosuch", "/tierz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ready" || !hz.Ready {
		t.Errorf("healthz = %d %+v", resp.StatusCode, hz)
	}
	if hz.Workers != 1 || hz.QueueLimit != 64 || hz.QueueDepth != 0 {
		t.Errorf("healthz queue fields wrong: %+v", hz)
	}
}

// TestOverloadShed503 is the overload acceptance criterion: with the
// only worker held and no queue, requests are shed immediately with 503
// + Retry-After instead of piling up, and capacity coming back makes
// the server serve again.
func TestOverloadShed503(t *testing.T) {
	var logBuf bytes.Buffer
	c := testConfig(1, 1, 0, &logBuf)
	c.QueueDepth = 0
	s := newTestServer(t, c)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Saturate through the scheduler itself: one in-flight request holds
	// both the single admission slot and the only worker.
	entered := make(chan struct{})
	release := make(chan struct{})
	blocked := make(chan error, 1)
	go func() {
		_, err := s.Sched.Do(context.Background(), func(*workload.Worker) error {
			close(entered)
			<-release
			return nil
		})
		blocked <- err
	}()
	<-entered
	before := runtime.NumGoroutine()
	const burst = 20
	for i := 0; i < burst; i++ {
		resp, err := http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("saturated server: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("503 without Retry-After")
		}
	}
	// Sheds are immediate, so the burst must not have parked goroutines.
	if after := runtime.NumGoroutine(); after > before+burst/2 {
		t.Errorf("goroutines grew %d -> %d during shed burst", before, after)
	}
	st := s.Sched.Stats()
	if st.ShedOverload != burst {
		t.Errorf("shed_overload = %d, want %d", st.ShedOverload, burst)
	}

	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("in-flight request during shed burst: %v", err)
	}
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d, want 200", resp.StatusCode)
	}

	// Every shed produced an access-log line with outcome and status.
	sheds := 0
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var e logLine
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("access log: %v", err)
		}
		if e.Outcome == "shed_overload" {
			sheds++
			if e.Status != http.StatusServiceUnavailable || e.Worker != -1 {
				t.Errorf("shed log entry wrong: %+v", e)
			}
		}
	}
	if sheds != burst {
		t.Errorf("access log has %d shed lines, want %d", sheds, burst)
	}
}

// TestDeadline504: a request whose deadline expires before a worker
// frees up answers 504, and the shed is counted as a timeout.
func TestDeadline504(t *testing.T) {
	c := testConfig(1, 1, 0, nil)
	c.QueueDepth, c.Timeout = 4, 5*time.Millisecond
	s := newTestServer(t, c)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wk := s.Pool.Acquire() // saturate: the request must queue, then expire
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.Pool.Release(wk)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	if st := s.Sched.Stats(); st.ShedDeadline != 1 {
		t.Errorf("shed_deadline = %d, want 1", st.ShedDeadline)
	}
}

// TestDrainLifecycle covers the SIGTERM path's state machine through
// the HTTP surface: under load, Drain lets in-flight requests finish
// (200), sheds new ones (503), flips /healthz to 503/draining, and
// leaves every worker back on the free list.
func TestDrainLifecycle(t *testing.T) {
	c := testConfig(2, 1, 0, nil)
	c.QueueDepth = 8
	s := newTestServer(t, c)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// In-flight load while the drain starts.
	var wg sync.WaitGroup
	codes := make(chan int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Sched.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Errorf("during drain: status %d, want 200 or 503", code)
		}
	}

	if st := s.Sched.State(); st != serve.StateDrained {
		t.Errorf("state after drain = %v, want drained", st)
	}
	if idle := s.Pool.Idle(); idle != s.Pool.Size() {
		t.Errorf("drained pool has %d/%d workers free", idle, s.Pool.Size())
	}

	// New requests and /healthz both answer 503 now.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drained render: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Ready || hz.Status != "drained" {
		t.Errorf("drained healthz = %d %+v", resp.StatusCode, hz)
	}
}

// TestQueueMetricsExported: the queue series land on /metrics with the
// documented names.
func TestQueueMetricsExported(t *testing.T) {
	s := testServer(t, 1, 1, 0, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drive(t, ts.URL, 3)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"phpserve_queue_depth 0",
		"phpserve_queue_limit 64",
		"phpserve_draining 0",
		`phpserve_shed_total{reason="overload"} 0`,
		`phpserve_shed_total{reason="timeout"} 0`,
		`phpserve_shed_total{reason="draining"} 0`,
		"phpserve_queue_wait_seconds_count 3",
		"# TYPE phpserve_queue_wait_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestValidateFlags exercises the fail-fast flag validation: each bad
// value is refused before a worker is built.
func TestValidateFlags(t *testing.T) {
	if _, err := serve.NewServer(testConfig(1, 0, 0.01, nil)); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	for name, mutate := range map[string]func(*serve.ServerConfig){
		"workers": func(c *serve.ServerConfig) { c.Workers = 0 },
		"warmup":  func(c *serve.ServerConfig) { c.Warmup = -1 },
		"queue":   func(c *serve.ServerConfig) { c.QueueDepth = -1 },
		"sample":  func(c *serve.ServerConfig) { c.SampleRate = 1.5 },
		"timeout": func(c *serve.ServerConfig) { c.Timeout = -time.Second },
		"drain":   func(c *serve.ServerConfig) { c.Drain = -time.Second },
		"config":  func(c *serve.ServerConfig) { c.Core = "turbo" },
		"cache":   func(c *serve.ServerConfig) { c.CacheCapacity = -1 },
		"pages":   func(c *serve.ServerConfig) { c.CacheCapacity, c.Pages, c.ZipfS = 8, 0, 1.0 },
		"zipf":    func(c *serve.ServerConfig) { c.CacheCapacity, c.Pages, c.ZipfS = 8, 64, 0 },
	} {
		c := testConfig(1, 0, 0.01, nil)
		mutate(&c)
		if _, err := serve.NewServer(c); err == nil {
			t.Errorf("bad -%s accepted", name)
		}
	}
}

// drive serves n requests against a running test server.
func drive(t *testing.T, url string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := http.Get(url + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestTracezEndpoint covers the /tracez acceptance criterion: the export
// is valid trace_event JSON and each request's per-span self-cycles sum
// to its root total.
func TestTracezEndpoint(t *testing.T) {
	s := testServer(t, 2, 2, 1, nil) // sample every request
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drive(t, ts.URL, 5)

	resp, err := http.Get(ts.URL + "/tracez?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var f struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			Dur  float64            `json:"dur"`
			Tid  int                `json:"tid"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatalf("/tracez is not valid trace_event JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	// Group by request root: self-cycles across each request's events must
	// sum to that request's inclusive total.
	roots := 0
	var selfSum, rootSum float64
	names := map[string]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("phase %q", ev.Ph)
		}
		names[ev.Name] = true
		selfSum += ev.Args["self_cycles"]
		if ev.Name == "request" {
			roots++
			rootSum += ev.Args["cycles"]
			if ev.Args["request"] == 0 {
				t.Error("root span missing request number")
			}
		}
	}
	if roots != 3 {
		t.Errorf("exported %d trees, want 3 (n=3)", roots)
	}
	if math.Abs(selfSum-rootSum) > 1e-6*rootSum {
		t.Errorf("Σ self-cycles %v != Σ root cycles %v", selfSum, rootSum)
	}
	for _, want := range []string{"request", "render", "render_item"} {
		if !names[want] {
			t.Errorf("export missing %q spans; have %v", want, names)
		}
	}

	// Folded and text forms render without error.
	for _, q := range []string{"/tracez?format=folded", "/tracez?format=text&n=1"} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("%s: status %d, %d bytes", q, resp.StatusCode, len(body))
		}
		if q == "/tracez?format=folded" && !strings.Contains(string(body), "request;") {
			t.Errorf("folded output has no stacks:\n%s", body)
		}
	}

	resp2, err := http.Get(ts.URL + "/tracez?format=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp2.StatusCode)
	}
}

// TestProfilezMatchesOffline is the /profilez acceptance criterion: on a
// warm server its headline numbers are the offline internal/profile
// result for the same fleet meter, exactly.
func TestProfilezMatchesOffline(t *testing.T) {
	s := testServer(t, 2, 2, 0.25, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drive(t, ts.URL, 20)

	// Offline reference: batch profile over the merged fleet meter.
	off := profile.FromMeter(s.Pool.Snapshot().Meter).Headline()

	var pr struct {
		profile.Doc
		Top []struct {
			Name string `json:"name"`
		} `json:"top"` // only the rows' names are read
	}
	if err := json.Unmarshal([]byte(scrape(t, ts.URL, "/profilez?format=json")), &pr); err != nil {
		t.Fatalf("/profilez json: %v", err)
	}
	if len(pr.Top) == 0 {
		t.Fatalf("empty profile: %+v", pr)
	}
	got := profile.Headline{Total: pr.TotalCycles, Functions: pr.Functions, Hottest: pr.Top[0].Name, HottestFrac: pr.HottestFrac, FuncsFor65: pr.FuncsFor65}
	if got != off {
		t.Errorf("/profilez headline %+v, offline %+v", got, off)
	}
	var shareSum float64
	for _, v := range pr.CategoryShare {
		shareSum += v
	}
	if math.Abs(shareSum-1) > 1e-6 {
		t.Errorf("category shares sum to %v", shareSum)
	}

	// Table and folded forms render and carry the headline content.
	table := scrape(t, ts.URL, "/profilez?n=5")
	for _, want := range []string{"flat profile since warm-up", off.String(), "cdf:", "function"} {
		if !strings.Contains(table, want) {
			t.Errorf("table output missing %q:\n%s", want, table)
		}
	}
	if folded := scrape(t, ts.URL, "/profilez?format=folded"); !strings.Contains(folded, ";") {
		t.Errorf("folded output has no stacks:\n%s", folded)
	}

	resp, err := http.Get(ts.URL + "/profilez?format=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

// TestReadsMoveNothing: every operator read of a -cache server renders
// one pool snapshot and changes no server state. With no request in
// between, any number of /stats, /metrics and /profilez reads leave
// /profilez byte for byte as it was, and its total and category shares
// are /stats' own — response-cache lookup charges included.
func TestReadsMoveNothing(t *testing.T) {
	c := testConfig(2, 2, 0.25, nil)
	c.CacheCapacity, c.Pages, c.ZipfS = 16, 64, 1.0
	ts := httptest.NewServer(newTestServer(t, c).Handler())
	defer ts.Close()

	const doc = "/profilez?format=json&n=0"
	check := func(served int) {
		t.Helper()
		first := scrape(t, ts.URL, doc)
		for i := 0; i < 8; i++ {
			for _, path := range []string{"/stats", "/metrics", "/profilez", doc} {
				scrape(t, ts.URL, path)
			}
		}
		if again := scrape(t, ts.URL, doc); again != first {
			t.Fatalf("after %d requests, reads moved %s:\nfirst %s\nlast  %s", served, doc, first, again)
		}
		var pr struct {
			profile.Doc
			Top []json.RawMessage `json:"top"` // not read
		}
		var st statsResponse
		if err := json.Unmarshal([]byte(first), &pr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(scrape(t, ts.URL, "/stats")), &st); err != nil {
			t.Fatal(err)
		}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
		if !near(pr.TotalCycles, st.SimCycles) || st.SimCycles <= 0 {
			t.Errorf("after %d requests: /profilez total_cycles %v, /stats sim_cycles %v", served, pr.TotalCycles, st.SimCycles)
		}
		for cat, share := range st.SimCategoryShare {
			if !near(pr.CategoryShare[cat], share) {
				t.Errorf("after %d requests: /profilez %s share %v, /stats %v", served, cat, pr.CategoryShare[cat], share)
			}
		}
	}
	drive(t, ts.URL, 40)
	check(40)
	drive(t, ts.URL, 20)
	check(60)
}

// TestTracezDisabled: without a tree ring the endpoint reports 404
// rather than an empty export.
func TestTracezDisabled(t *testing.T) {
	c := testConfig(1, 0, 0, nil)
	c.TreeRing = 0
	s := newTestServer(t, c)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestBackendIdentityStamping: in cluster mode (-fpm/-backend) the
// backend id appears on X-Backend, /healthz, and every access-log line;
// standalone servers log "-" and send no X-Backend header.
func TestBackendIdentityStamping(t *testing.T) {
	var buf bytes.Buffer
	c := testConfig(1, 2, 1, &buf)
	c.Backend = 3
	srv := newTestServer(t, c)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Backend"); got != "3" {
		t.Errorf("X-Backend = %q, want 3", got)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthzResponse
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if h.Backend != "3" {
		t.Errorf("healthz backend = %q, want 3", h.Backend)
	}

	line := bytes.TrimSpace(buf.Bytes())
	var raw map[string]any
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatalf("access log line: %v", err)
	}
	if raw["backend"] != "3" {
		t.Errorf("access log backend = %v, want \"3\"", raw["backend"])
	}
}

// TestStandaloneBackendDefaults: no -backend means no X-Backend header,
// "-" in healthz and the access log (the schema key is still present).
func TestStandaloneBackendDefaults(t *testing.T) {
	var buf bytes.Buffer
	srv := testServer(t, 1, 2, 1, &buf)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got, ok := resp.Header["X-Backend"]; ok {
		t.Errorf("standalone server sent X-Backend %v", got)
	}

	var raw map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &raw); err != nil {
		t.Fatal(err)
	}
	if got, ok := raw["backend"]; !ok || got != "-" {
		t.Errorf("access log backend = %v (present %v), want \"-\"", got, ok)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthzResponse
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if h.Backend != "-" {
		t.Errorf("healthz backend = %q, want \"-\"", h.Backend)
	}
}

// TestDBWaitPacesRenders: -dbwait holds the worker through the stall,
// so request latency is bounded below by it.
func TestDBWaitPacesRenders(t *testing.T) {
	const dbWait = 40 * time.Millisecond
	c := testConfig(1, 2, 0, nil)
	c.DBWait = dbWait
	ts := httptest.NewServer(newTestServer(t, c).Handler())
	defer ts.Close()

	t0 := time.Now()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(t0); elapsed < dbWait {
		t.Errorf("request finished in %v, faster than the %v db stall", elapsed, dbWait)
	}
}

func TestValidateClusterFlags(t *testing.T) {
	for _, tc := range []struct {
		backend int
		dbwait  time.Duration
		ok      bool
	}{
		{-1, 0, true},                    // standalone defaults
		{2, 25 * time.Millisecond, true}, // a backend with a stall
		{-2, 0, false},                   // bad -backend
		{0, -time.Second, false},         // negative -dbwait
	} {
		c := testConfig(1, 0, 0, nil)
		c.Backend, c.DBWait = tc.backend, tc.dbwait
		if _, err := serve.NewServer(c); (err == nil) != tc.ok {
			t.Errorf("backend %d dbwait %v: error %v, want ok=%v", tc.backend, tc.dbwait, err, tc.ok)
		}
	}
}
