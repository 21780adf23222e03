package profile

import (
	"sort"
	"time"

	"repro/internal/sim"
)

// DefaultLiveEpochs is how many cumulative snapshots a Live keeps: the
// windowed profile spans at most DefaultLiveEpochs-1 rotation periods.
const DefaultLiveEpochs = 16

// epoch is one cumulative per-function snapshot: the fleet meter's state
// at a rotation instant. Function rows are keyed by name+category like
// the meter itself so windowed deltas stay category-exact.
type epoch struct {
	at   time.Time
	fns  map[epochKey]epochRow
	boot bool // the synthetic zero epoch planted at construction
}

type epochKey struct {
	name string
	cat  sim.Category
}

type epochRow struct {
	cycles float64
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
// snapshots (<=0 selects DefaultLiveEpochs; 2 is the useful minimum —
// one window). The ring starts with a zero epoch at time now.
func NewLive(maxEpochs int, now time.Time) *Live {
	if maxEpochs <= 0 {
		maxEpochs = DefaultLiveEpochs
	}
	if maxEpochs < 2 {
		maxEpochs = 2
	}
	return &Live{
		max:    maxEpochs,
		epochs: []epoch{{at: now, fns: map[epochKey]epochRow{}, boot: true}},
	}
}

// Observe records the fleet's cumulative state at time now as a new
// epoch, evicting the oldest when the ring is full. The meter must be a
// merged cumulative snapshot (never reset between observations); Live
// only reads it.
func (l *Live) Observe(mt *sim.Meter, now time.Time) {
	e := epoch{at: now, fns: make(map[epochKey]epochRow, 256)}
	for _, f := range mt.Functions() {
		e.fns[epochKey{f.Name, f.Category}] = epochRow{cycles: f.Cycles(&mt.Model)}
	}
	l.epochs = append(l.epochs, e)
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
// metadata. Counters are cumulative and meters are never reset, so every
// per-function delta is non-negative; functions with no cycles in the
// window are dropped.
func (l *Live) Window() (Profile, WindowInfo) {
	oldest, newest := l.epochs[0], l.epochs[len(l.epochs)-1]
	info := WindowInfo{
		Since:     oldest.at,
		Until:     newest.at,
		Epochs:    len(l.epochs),
		SinceBoot: oldest.boot,
	}

	type row struct {
		key    epochKey
		cycles float64
	}
	rows := make([]row, 0, len(newest.fns))
	var total float64
	for k, nw := range newest.fns {
		d := nw.cycles - oldest.fns[k].cycles
		if d <= 0 {
			continue
		}
		rows = append(rows, row{key: k, cycles: d})
		total += d
	}
	// Hottest-first with a name tiebreak, matching sim.Meter.Functions so
	// live and offline profiles rank identically.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cycles != rows[j].cycles {
			return rows[i].cycles > rows[j].cycles
		}
		return rows[i].key.name < rows[j].key.name
	})

	p := Profile{Entries: make([]Entry, 0, len(rows)), Total: total}
	cum := 0.0
	for _, r := range rows {
		frac := 0.0
		if total > 0 {
			frac = r.cycles / total
		}
		cum += frac
		p.Entries = append(p.Entries, Entry{
			Name:     r.key.name,
			Category: r.key.cat,
			Cycles:   r.cycles,
			Frac:     frac,
			Cum:      cum,
		})
	}
	return p, info
}
