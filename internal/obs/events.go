package obs

import (
	"sync"
	"time"
)

// Cluster lifecycle events. The router records state transitions that
// explain why the serving picture changed — a backend went down or came
// back, ring ownership moved — in a bounded ring that GET /eventz
// serves as JSON. Events answer the operator question
// "what happened around 12:04?" that counters alone cannot: a latency
// blip lines up with a backend_down/backend_up pair, a hit-ratio dip
// with a ring_change.

// Event kinds recorded by the router.
const (
	// EventBackendUp: a backend transitioned unhealthy -> healthy.
	EventBackendUp = "backend_up"
	// EventBackendDown: a backend transitioned healthy -> unhealthy.
	EventBackendDown = "backend_down"
	// EventRingChange: cache-affinity ring ownership changed (a backend
	// joined or left the consistent-hash ring).
	EventRingChange = "ring_change"
)

// Event is one recorded cluster lifecycle transition.
type Event struct {
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// Backend is the affected backend's ID, empty for cluster-wide
	// events.
	Backend string `json:"backend,omitempty"`
	// Detail is a human-readable elaboration ("virtual nodes removed").
	Detail string `json:"detail,omitempty"`
}

// EventRing retains the most recent cluster events in a bounded ring and
// counts every event ever recorded by kind (the backing for
// phprouter_events_total{kind}). Safe for concurrent use.
type EventRing struct {
	mu     sync.Mutex
	cap    int
	events []Event
	start  int
	counts map[string]int64
}

// NewEventRing builds a ring keeping at most capacity events (<=0
// selects a capacity of 1).
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = 1
	}
	return &EventRing{cap: capacity, counts: make(map[string]int64)}
}

// Add records an event at time now. Nil-safe, so callers without an
// event plane configured skip recording with one branch.
func (r *EventRing) Add(now time.Time, kind, backend, detail string) {
	if r == nil {
		return
	}
	e := Event{Time: now, Kind: kind, Backend: backend, Detail: detail}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[kind]++
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.start] = e
	r.start = (r.start + 1) % r.cap
}

// Last returns up to n retained events, oldest first. n <= 0 returns
// every retained event. Nil-safe.
func (r *EventRing) Last(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ordered := make([]Event, 0, len(r.events))
	ordered = append(ordered, r.events[r.start:]...)
	ordered = append(ordered, r.events[:r.start]...)
	if n > 0 && n < len(ordered) {
		ordered = ordered[len(ordered)-n:]
	}
	return ordered
}

// Counts returns a copy of the per-kind totals over every event ever
// recorded, including evicted ones. Nil-safe.
func (r *EventRing) Counts() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Total returns how many events were ever recorded. Nil-safe.
func (r *EventRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var t int64
	for _, v := range r.counts {
		t += v
	}
	return t
}
