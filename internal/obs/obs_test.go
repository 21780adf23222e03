package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSamplerRates(t *testing.T) {
	tests := []struct {
		rate float64
		n    int
		want int
	}{
		{1, 100, 100},    // every request
		{0, 100, 0},      // disabled
		{-0.5, 100, 0},   // negative clamps to disabled
		{0.01, 1000, 10}, // deterministic: every 100th
		{0.25, 100, 25},
		{2, 10, 10},    // >=1 clamps to every request
		{0.7, 100, 50}, // ceil(1/0.7) = 2: realized rate never exceeds requested
		{0.4, 99, 33},  // ceil(1/0.4) = 3
	}
	for _, tt := range tests {
		s := NewSampler(tt.rate)
		got := 0
		for i := 0; i < tt.n; i++ {
			if s.Sample() {
				got++
			}
		}
		if got != tt.want {
			t.Errorf("rate %v over %d: sampled %d, want %d", tt.rate, tt.n, got, tt.want)
		}
	}
}

func TestSamplerConcurrent(t *testing.T) {
	// The counter is atomic: with rate 0.1, 40 goroutines x 25 requests
	// must sample exactly 100.
	s := NewSampler(0.1)
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for g := 0; g < 40; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < 25; i++ {
				if s.Sample() {
					n++
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != 100 {
		t.Errorf("sampled %d of 1000 at rate 0.1, want exactly 100", total)
	}
}

func TestSamplerTinyRateNoOverflow(t *testing.T) {
	// 1/rate overflows uint64 here; the interval must clamp to a huge
	// finite value instead of hitting undefined float→uint conversion.
	s := NewSampler(1e-300)
	if s.every == 0 {
		t.Fatal("tiny positive rate must not disable sampling")
	}
	if s.Sample() {
		t.Error("sampled a request at an astronomically small rate")
	}
}

func TestNilSampler(t *testing.T) {
	var s *Sampler
	if s.Sample() {
		t.Error("nil sampler must never sample")
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3})
	for _, v := range []float64{0.5, 1, 1.5, 2.5, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.5 and 1 land in le=1 (boundary inclusive), 1.5 in le=2, 2.5 in
	// le=3, 10 overflows.
	if s.Counts[0] != 2 || s.Counts[1] != 3 || s.Counts[2] != 4 || s.Count != 5 {
		t.Errorf("cumulative counts = %v count %d", s.Counts, s.Count)
	}
	if s.Sum != 15.5 {
		t.Errorf("sum = %v, want 15.5", s.Sum)
	}
}

func TestCollectorObserve(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector(1, &buf, nil)

	var sp Span
	sp.Worker = 3
	sp.Wall = 2 * time.Millisecond
	sp.Sampled = c.ShouldSample()
	root := &TreeSpan{Name: "request"}
	root.Categories[sim.CatHash] = 700
	root.Categories[sim.CatRegex] = 300
	root.Cycles = root.Categories.Total()
	sp.Tree = &Tree{Worker: 3, Root: root}
	out := c.ObserveHTTP(sp, 512, RequestMeta{})
	if out.Request != 1 {
		t.Errorf("first request number = %d", out.Request)
	}
	c.ObserveHTTP(Span{Wall: time.Millisecond, Sampled: c.ShouldSample()}, 100, RequestMeta{})

	snap := c.Snapshot()
	if snap.Requests != 2 || snap.ResponseBytes != 612 || snap.SampledSpans != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Latency.Count != 2 {
		t.Errorf("histogram count = %d", snap.Latency.Count)
	}
	if got := snap.Latency.Sum; math.Abs(got-0.003) > 1e-12 {
		t.Errorf("histogram sum = %v, want the two walls' 3ms", got)
	}

	var e logEntry
	if err := json.Unmarshal(bytes.Split(buf.Bytes(), []byte("\n"))[0], &e); err != nil {
		t.Fatal(err)
	}
	if e.Worker != 3 || e.Request != 1 || e.LatencyUS != 2000 || e.Bytes != 512 {
		t.Errorf("log entry = %+v", e)
	}
	if e.Breakdown["hash"] != 700 || e.Breakdown["regex"] != 300 {
		t.Errorf("breakdown = %v", e.Breakdown)
	}
	if _, ok := e.Breakdown["heap"]; ok {
		t.Errorf("zero categories should be omitted: %v", e.Breakdown)
	}
}

func TestAccessLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				l.WriteMeta(Span{Request: uint64(g*20 + i), Worker: g, Wall: time.Millisecond, Sampled: true}, 64, RequestMeta{})
			}
		}(g)
	}
	wg.Wait()
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e logEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("interleaved or corrupt line %d: %v: %s", lines, err, sc.Text())
		}
		lines++
	}
	if lines != 160 {
		t.Errorf("log lines = %d, want 160", lines)
	}
}

// TestCollectorObserveShed: sheds are not served requests and always
// produce an access-log line (no sampling — they
// are rare and operator-relevant) carrying the lifecycle fields.
func TestCollectorObserveShed(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector(0, &buf, nil) // sample rate 0: served requests unlogged
	c.ObserveHTTP(Span{Wall: time.Millisecond}, 100, RequestMeta{})
	c.ObserveShed(RequestMeta{
		Path:      "/overloaded",
		Status:    503,
		Outcome:   "shed_overload",
		QueueWait: 3 * time.Millisecond,
	})

	if snap := c.Snapshot(); snap.Requests != 1 {
		t.Errorf("snapshot requests = %d, want 1 (the shed is not a served request)", snap.Requests)
	}

	var e logEntry
	if err := json.Unmarshal(bytes.Split(buf.Bytes(), []byte("\n"))[0], &e); err != nil {
		t.Fatalf("shed line not logged or invalid: %v", err)
	}
	if e.Outcome != "shed_overload" || e.Status != 503 || e.Worker != -1 {
		t.Errorf("shed entry = %+v", e)
	}
	if e.QueueUS != 3000 {
		t.Errorf("queue_us = %d, want 3000", e.QueueUS)
	}
	if e.Path != "/overloaded" {
		t.Errorf("path = %q", e.Path)
	}

	// A collector without a log writer must not panic on sheds.
	NewCollector(0, nil, nil).ObserveShed(RequestMeta{Outcome: "timeout"})
}

func TestDefLatencyBucketsCoverOverloadTail(t *testing.T) {
	// -timeout/-drain permit multi-second waits; a 10s observation must
	// land in a finite bucket, not fall through to +Inf.
	bounds := DefLatencyBuckets()
	h := NewHistogram(bounds)
	h.Observe(10.0)
	s := h.Snapshot()
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("10s observation not within the largest finite bucket (max bound %g)", bounds[len(bounds)-1])
	}
	for i, b := range bounds {
		if b >= 10.0 {
			if s.Counts[i] != 1 {
				t.Errorf("cumulative count at bound %g = %d, want 1", b, s.Counts[i])
			}
			return
		}
		if s.Counts[i] != 0 {
			t.Errorf("cumulative count at bound %g = %d, want 0", b, s.Counts[i])
		}
	}
}
