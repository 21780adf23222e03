package profile

import (
	"time"

	"repro/internal/sim"
)

// defaultEpochs is how many cumulative snapshots a Live keeps unless
// told otherwise: the windowed profile spans at most defaultEpochs-1
// rotation periods.
const defaultEpochs = 16

// epoch is one cumulative snapshot: the fleet meter's rows at a
// rotation instant, one per (function, category) like the meter's own
// so windowed deltas stay category-exact.
type epoch struct {
	at   time.Time
	rows []Entry
	boot bool // the synthetic zero epoch planted at construction
}

// Live maintains a windowed flat profile over a running fleet. Callers
// periodically hand it a fresh cumulative merged meter (typically under
// the pool's snapshot barrier); Live retains a bounded ring of these
// cumulative epochs and reports the profile of the *window* — the delta
// between the newest and oldest retained epoch — so /profilez tracks
// current traffic instead of diluting it with everything since boot.
//
// The ring is seeded with a synthetic zero epoch, so until it fills the
// window stretches back to server start and the live profile equals the
// offline FromMeter result for the same meter — which is what makes the
// live and batch views directly comparable (the acceptance criterion).
type Live struct {
	max    int
	epochs []epoch // oldest first
}

// NewLive builds a live profile keeping up to maxEpochs cumulative
// snapshots (<=0 selects the default of 16; 2 is the useful minimum —
// one window). The ring starts with a zero epoch at time now.
func NewLive(maxEpochs int, now time.Time) *Live {
	if maxEpochs <= 0 {
		maxEpochs = defaultEpochs
	}
	if maxEpochs < 2 {
		maxEpochs = 2
	}
	return &Live{
		max:    maxEpochs,
		epochs: []epoch{{at: now, boot: true}},
	}
}

// Observe records the fleet's cumulative state at time now as a new
// epoch, evicting the oldest when the ring is full. The meter must be a
// merged cumulative snapshot (never reset between observations); Live
// only reads it.
func (l *Live) Observe(mt *sim.Meter, now time.Time) {
	l.epochs = append(l.epochs, epoch{at: now, rows: meterRows(mt)})
	if len(l.epochs) > l.max {
		l.epochs = l.epochs[1:]
	}
}

// WindowInfo describes the span of the current window.
type WindowInfo struct {
	// Since is the oldest retained epoch's timestamp: the window start.
	// When SinceBoot is true this is server start.
	Since time.Time
	// Until is the newest epoch's timestamp.
	Until time.Time
	// Epochs is how many cumulative snapshots the window spans.
	Epochs int
	// SinceBoot reports that the ring has not evicted yet, so the window
	// still covers everything since construction.
	SinceBoot bool
}

// Window returns the flat profile of the current window — the cycles
// charged between the oldest and newest retained epochs — plus window
// metadata. The builder sums the newest rows with the oldest negated, so
// each function's delta is its newest minus its oldest cycles. Counters
// are cumulative and meters are never reset, so no delta is negative;
// a function with no cycles in the window sorts last and is dropped.
func (l *Live) Window() (Profile, WindowInfo) {
	oldest, newest := l.epochs[0], l.epochs[len(l.epochs)-1]
	info := WindowInfo{
		Since:     oldest.at,
		Until:     newest.at,
		Epochs:    len(l.epochs),
		SinceBoot: oldest.boot,
	}
	rows := append([]Entry(nil), newest.rows...)
	for _, e := range oldest.rows {
		e.Cycles = -e.Cycles
		rows = append(rows, e)
	}
	p := build(rows)
	for n := len(p.Entries); n > 0 && p.Entries[n-1].Cycles <= 0; n-- {
		p.Entries = p.Entries[:n-1]
	}
	return p, info
}
