package main

import "fmt"

// period returns the smallest p such that h repeats with period p over
// its whole length, seeing at least two full periods, or 0 if there is
// none. WordPress pages repeat with the corpus size; the blog script's
// pages never do.
func period(h []uint64) int {
	for p := 1; 2*p <= len(h); p++ {
		ok := true
		for i := 0; i+p < len(h); i++ {
			if h[i] != h[i+p] {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	return 0
}

// streamOracle judges the bodies of GET / responses. Each server worker
// renders its own deterministic page stream, so whatever interleaving
// the clients saw, the responses of a pass must be exactly one prefix
// of each worker's stream (continuing where the previous pass stopped).
type streamOracle struct {
	t       *twin
	periods []int // per worker; 0 = render the reference on demand
	base    []int // stream positions consumed by earlier passes
}

// newStreamOracle starts after the positions the twin has already
// rendered: the replay of the exact pass.
func newStreamOracle(t *twin) *streamOracle {
	o := &streamOracle{t: t, periods: make([]int, len(t.streams)), base: make([]int, len(t.streams))}
	for w, s := range t.streams {
		o.periods[w] = period(s)
		o.base[w] = len(s)
	}
	return o
}

// ref is the expected body hash of worker w's stream position pos.
func (o *streamOracle) ref(w, pos int) uint64 {
	s := o.t.streams[w]
	if pos < len(s) {
		return s[pos]
	}
	if p := o.periods[w]; p > 0 {
		return s[pos%p]
	}
	upto := make([]int, len(o.t.streams))
	// Render ahead in blocks: the search around the even split asks for
	// neighbouring positions one at a time.
	upto[w] = pos + 256
	o.t.extend(upto)
	return o.t.streams[w][pos]
}

// checkPass matches the observed body hashes of one pass against the
// union of one stream prefix per worker and returns how many responses
// fit no such union (0 = all bodies verified). On success the oracle
// advances past the matched prefixes.
func (o *streamOracle) checkPass(observed []uint64) (mismatched int, err error) {
	if len(o.base) != 2 {
		return 0, fmt.Errorf("oracle: prefix check is written for 2 workers, have %d", len(o.base))
	}
	total := len(observed)
	if p0, p1 := o.periods[0], o.periods[1]; p0 == 0 || p1 == 0 {
		// Render the likely range up front, both workers in parallel.
		o.t.extend([]int{o.base[0] + total/2 + 256, o.base[1] + total/2 + 256})
	}
	k0, bad := matchPrefixes(observed, func(w, j int) uint64 { return o.ref(w, o.base[w]+j) }, total/8+64)
	if bad > 0 {
		return bad, nil
	}
	o.base[0] += k0
	o.base[1] += total - k0
	// A periodic reference extrapolates; pin its last used position to
	// an actual render of that page.
	for w, p := range o.periods {
		if last := o.base[w] - 1; p > 0 && last >= len(o.t.streams[w]) {
			got, err := o.t.pageHash(w, last)
			if err != nil {
				return 0, err
			}
			if got != o.ref(w, last) {
				return 0, fmt.Errorf("oracle: worker %d stream is not periodic: position %d differs from position %d", w, last, last%p)
			}
		}
	}
	return 0, nil
}

// matchPrefixes finds k0 such that observed equals, as a multiset,
// ref(0, 0..k0-1) ∪ ref(1, 0..len-k0-1), searching k0 within maxSkew of
// the even split. It returns the k0 that fits best and the number of
// observed responses that fit neither prefix there (0 = exact match).
func matchPrefixes(observed []uint64, ref func(w, j int) uint64, maxSkew int) (k0, mismatched int) {
	total := len(observed)
	centre := total / 2
	// diff[h] = expected count - observed count; bad = Σ|diff|.
	diff := make(map[uint64]int, total)
	bad := 0
	bump := func(h uint64, d int) {
		before := diff[h]
		after := before + d
		diff[h] = after
		bad += abs(after) - abs(before)
	}
	reset := func() {
		clear(diff)
		bad = 0
		for _, h := range observed {
			bump(h, -1)
		}
		for j := 0; j < centre; j++ {
			bump(ref(0, j), +1)
		}
		for j := 0; j < total-centre; j++ {
			bump(ref(1, j), +1)
		}
	}
	bestK, bestBad := centre, -1
	note := func(k int) bool {
		if bestBad < 0 || bad < bestBad {
			bestK, bestBad = k, bad
		}
		return bad == 0
	}
	reset()
	if note(centre) {
		return centre, 0
	}
	for k := centre; k < total && k-centre < maxSkew; k++ {
		// k -> k+1: worker 0 gains position k, worker 1 loses its last.
		bump(ref(0, k), +1)
		bump(ref(1, total-k-1), -1)
		if note(k + 1) {
			return k + 1, 0
		}
	}
	reset()
	for k := centre; k > 0 && centre-k < maxSkew; k-- {
		bump(ref(0, k-1), -1)
		bump(ref(1, total-k), +1)
		if note(k - 1) {
			return k - 1, 0
		}
	}
	// Every wrong body is one missing expected hash plus one unexpected.
	return bestK, (bestBad + 1) / 2
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
