package obs

import (
	"io"
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkAccessLogWriteMeta measures one sampled access-log line end
// to end — the hand-rolled encoder holds this near zero allocs/op
// (the only remaining cost is the time formatting), where the previous
// encoding/json path paid reflection plus a breakdown map per line.
func BenchmarkAccessLogWriteMeta(b *testing.B) {
	l := NewAccessLog(io.Discard)
	root := &TreeSpan{Name: "request", Cycles: 123456}
	for _, c := range sim.Categories() {
		root.Categories[c] = float64(1000 + int(c))
	}
	sp := Span{Request: 42, Worker: 3, Wall: 1500 * time.Microsecond, Sampled: true, Tree: &Tree{Worker: 3, Root: root}}
	meta := RequestMeta{
		Path:      "/?page=17",
		UserAgent: "bench/1.0",
		RequestID: "req-0000002a",
		Status:    200,
		QueueWait: 30 * time.Microsecond,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.WriteMeta(sp, 4096, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessLogUnsampled is the cheaper shed/unsampled line shape.
func BenchmarkAccessLogUnsampled(b *testing.B) {
	l := NewAccessLog(io.Discard)
	sp := Span{Worker: -1, Wall: 200 * time.Microsecond}
	meta := RequestMeta{Path: "/", Status: 503, Outcome: "shed_overload"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.WriteMeta(sp, 0, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPromEncoder measures a representative /metrics scrape
// fragment — labelled counters, a gauge, and a histogram — through the
// reflection walker, the way the servers render it.
func BenchmarkPromEncoder(b *testing.B) {
	labels := []Label{{Name: "app", Value: "wordpress"}, {Name: "config", Value: "accelerated"}}
	h := NewHistogram(DefLatencyBuckets())
	for i := 0; i < 64; i++ {
		h.Observe(float64(i) / 100)
	}
	snap := struct {
		Requests int               `prom:"bench_requests_total,counter,base" help:"Requests served."`
		Shed     int               `prom:"bench_shed_total,counter,reason=overload" help:"Sheds."`
		Queue    int               `prom:"bench_queue_depth,gauge" help:"Queue depth."`
		Latency  HistogramSnapshot `prom:"bench_latency_seconds,histogram" help:"Latency."`
	}{12345, 17, 3, h.Snapshot()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(io.Discard)
		e.Struct("", labels, snap)
		if err := e.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
