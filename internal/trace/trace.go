// Package trace defines the operation trace that drives the simulator,
// mirroring the paper's trace-driven evaluation methodology (§5.1). The
// VM records one event per runtime activity (hash map access, heap
// operation, string function, regexp scan); the experiments aggregate
// these traces. No endpoint serves the events themselves (/tracez serves
// obs span trees).
//
// A Recorder is single-writer: each simulated core (vm.Runtime) owns one
// and records into it without locking. Fleet-level views are produced
// after the fact with Merge, which appends another recorder's retained
// events (grouped by worker, not interleaved by time) while preserving
// the total and per-kind counts past ring eviction — so KindTotals stays
// exact even when the bounded ring has dropped old events. The serving
// stack's /metrics endpoint exports those totals as event counters.
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

// Recorder collects events in memory with an optional capacity bound
// (0 = unbounded). When bounded it keeps the most recent events.
type Recorder struct {
	cap    int
	events []Event
	total  int64
	byKind [NumKinds]int64
	start  int
}

// NewRecorder creates a recorder holding at most capacity events
// (0 for unbounded).
func NewRecorder(capacity int) *Recorder {
	return &Recorder{cap: capacity}
}

// Record appends an event.
func (r *Recorder) Record(e Event) {
	r.total++
	if int(e.Kind) < NumKinds {
		r.byKind[e.Kind]++
	}
	if r.cap <= 0 {
		r.events = append(r.events, e)
		return
	}
	if len(r.events) < r.cap {
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
func (r *Recorder) Total() int64 { return r.total }

// KindTotals returns how many events of each kind were ever recorded,
// including events a bounded ring has since evicted. Merge folds the
// source recorder's full history in, so fleet-level totals stay exact.
func (r *Recorder) KindTotals() [NumKinds]int64 { return r.byKind }

// Events returns the retained events in record order.
func (r *Recorder) Events() []Event {
	if r.cap <= 0 || len(r.events) < r.cap {
		return append([]Event(nil), r.events...)
	}
	out := make([]Event, 0, r.cap)
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Merge appends another recorder's retained events to this one (honoring
// this recorder's capacity bound) and folds in its total count. Workers
// record privately while serving; the pool merges the per-worker traces
// after the goroutines join, so merged events are grouped by worker, not
// interleaved by time.
func (r *Recorder) Merge(o *Recorder) {
	dropped := o.total - int64(len(o.events))
	var retained [NumKinds]int64
	for _, e := range o.Events() {
		r.Record(e)
		if int(e.Kind) < NumKinds {
			retained[e.Kind]++
		}
	}
	r.total += dropped // events o's ring already evicted still count
	for i := range r.byKind {
		// Record counted the retained events; top up with o's evicted ones
		// so per-kind totals reflect o's full history.
		r.byKind[i] += o.byKind[i] - retained[i]
	}
}

// Reset clears the recorder.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.start = 0
	r.total = 0
	r.byKind = [NumKinds]int64{}
}
