package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's own files. Times are nanoseconds since the recorder began.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`   // -1 for a request's root span
	Req      int    `json:"req"`      // spans of one request share this
	Workload string `json:"workload"` // set when the spans are collected for -trace-out
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path pays one nil check per hook. It
// is driven by a single goroutine.
type spanRecorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
	req   int
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// nextRequest starts a new request: spans begun from now share its id.
func (r *spanRecorder) nextRequest() {
	if r != nil {
		r.req++
	}
}

func (r *spanRecorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
}

func (r *spanRecorder) end() {
	if r == nil {
		return
	}
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = int64(time.Since(r.t0))
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover. Summed over one request's spans it telescopes to the
// root span's duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// medianSelfByName is the median self time per span name, in
// nanoseconds: what a typical request spends in each layer, whatever a
// stalled one spent.
func medianSelfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i]))
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// appendSpans adds one workload's spans to all. A recorder numbers ids
// and requests from 0, so they are shifted past those already there:
// every id in the result is unique and every parent is the index of its
// span, as selfTimes needs.
func appendSpans(all []span, workload string, spans []span) []span {
	idBase, reqBase := len(all), 0
	if idBase > 0 {
		reqBase = all[idBase-1].Req + 1 // spans are in request order
	}
	for _, s := range spans {
		s.ID += idBase
		if s.Parent >= 0 {
			s.Parent += idBase
		}
		s.Req += reqBase
		s.Workload = workload
		all = append(all, s)
	}
	return all
}

// writeSpans dumps the spans as one JSON array (see README.md for the
// field meanings).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
