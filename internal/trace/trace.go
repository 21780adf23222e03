// Package trace defines the operation trace that drives the simulator,
// mirroring the paper's trace-driven evaluation methodology (§5.1). The
// VM records one event per runtime activity (hash map access, heap
// operation, string function, regexp scan); the experiments aggregate
// these traces. No endpoint serves the events themselves (/tracez serves
// obs span trees).
//
// A Recorder is single-writer: each simulated core (vm.Runtime) owns one
// and records into it without locking. It keeps every event, the last N,
// or none — counting only, all the servers need for their per-kind event
// counters. Merge builds fleet-level views after the fact: counts stay
// exact past ring eviction, kept events are grouped by worker.
package trace

// Kind is the event type.
type Kind uint8

const (
	KindHashGet Kind = iota
	KindHashSet
	KindHashDelete
	KindHashIterate
	KindAlloc
	KindFree
	KindStringOp
	KindRegexScan
	KindRequest // request boundary marker

	numKinds
)

// NumKinds is the number of event kinds, for dense per-kind count
// vectors indexed by Kind.
const NumKinds = int(numKinds)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KindHashGet:
		return "hash-get"
	case KindHashSet:
		return "hash-set"
	case KindHashDelete:
		return "hash-delete"
	case KindHashIterate:
		return "hash-iterate"
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	case KindStringOp:
		return "string-op"
	case KindRegexScan:
		return "regex-scan"
	case KindRequest:
		return "request"
	default:
		return "unknown"
	}
}

// Event is one traced runtime operation. Field meaning varies by kind:
//
//	hash ops:   A = map ID, B = key length, C = 1 if dynamic key
//	alloc/free: A = address, B = size
//	string op:  A = strlib op code, B = subject bytes
//	regex scan: A = regexp PC (pattern identity), B = bytes scanned
//	request:    A = request sequence number
type Event struct {
	Kind Kind
	Fn   string // leaf function attribution
	A    uint64
	B    uint64
	C    uint64
}

// Recorder counts events by kind and keeps all of them, the most recent
// ones, or none (see NewRecorder). The padding keeps the counters every
// operation bumps off cache lines shared with another worker's objects.
type Recorder struct {
	_      [64]byte
	cap    int
	events []Event
	byKind [NumKinds]int64
	start  int
	_      [64]byte
}

// NewRecorder creates a recorder holding at most capacity events: 0 for
// unbounded, negative to keep none and only count.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{cap: capacity}
}

// Counting reports whether the recorder keeps no events, so a caller can
// skip building one and call Count.
func (r *Recorder) Counting() bool { return r.cap < 0 }

// Count counts one event of kind k without keeping it: all Record does on
// a counting recorder.
func (r *Recorder) Count(k Kind) { r.byKind[k]++ }

// Record counts an event and, unless the recorder is counting, keeps it.
func (r *Recorder) Record(e Event) {
	r.Count(e.Kind)
	if r.cap >= 0 {
		r.keep(e)
	}
}

// keep appends e, overwriting the oldest kept event once a bounded ring
// is full.
func (r *Recorder) keep(e Event) {
	if r.cap == 0 || len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.start] = e
	r.start++
	if r.start == r.cap {
		r.start = 0
	}
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() int64 {
	var n int64
	for _, c := range r.byKind {
		n += c
	}
	return n
}

// KindTotals returns how many events of each kind were ever recorded,
// including events a bounded ring has since evicted. Merge folds the
// source recorder's full history in, so fleet-level totals stay exact.
func (r *Recorder) KindTotals() [NumKinds]int64 { return r.byKind }

// Events returns the retained events in record order (a full ring's
// oldest sits at start).
func (r *Recorder) Events() []Event {
	return append(append([]Event(nil), r.events[r.start:]...), r.events[:r.start]...)
}

// Merge folds another recorder's per-kind counts — its full history —
// into this one and, unless this recorder is counting, appends o's
// retained events within this recorder's bound. The pool merges the
// per-worker traces after the goroutines join, so merged events are
// grouped by worker, not interleaved by time.
func (r *Recorder) Merge(o *Recorder) {
	for i := range r.byKind {
		r.byKind[i] += o.byKind[i]
	}
	if r.cap < 0 {
		return
	}
	for _, e := range o.events[o.start:] {
		r.keep(e)
	}
	for _, e := range o.events[:o.start] {
		r.keep(e)
	}
}

// Reset clears the recorder.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.start = 0
	r.byKind = [NumKinds]int64{}
}
