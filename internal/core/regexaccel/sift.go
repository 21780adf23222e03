// Package regexaccel implements the paper's two regular expression
// acceleration techniques (§4.5): Content Sifting and Content Reuse.
// Both avoid repetitive character-at-a-time processing of textual data by
// exploiting content locality across the regexps of real PHP
// applications, rather than building a parallel matching engine.
//
// Content Sifting: the first regexp over a piece of content (the sieve)
// scans it fully while the string accelerator produces a hint vector (HV)
// — one bit per fixed-size segment, set when the segment may contain a
// special character. Later regexps over the same content (the shadows)
// that provably need a special character to match consult the HV and skip
// unflagged segments wholesale, using a count-leading-zeros step to find
// the next flagged segment.
//
// Content Reuse: a small table remembers, per regexp PC and address-space
// ID, the last content prefix scanned and the FSM state the scan reached;
// when nearly identical content arrives again (URLs differing only in the
// last field, repeated HTML attribute values), the FSM jumps straight to
// the remembered state, skipping the shared prefix even when it contains
// special characters.
package regexaccel

import (
	"repro/internal/regex"
	"repro/internal/strlib"
)

// Config sizes the accelerator.
type Config struct {
	// SegSize is the sifting segment granularity in bytes.
	SegSize int
	// ReuseEntries is the content reuse table capacity (paper: 32).
	ReuseEntries int
	// MaxReuseContent caps the stored content prefix (paper: 32 bytes).
	MaxReuseContent int
	// MaxRegularPrefix bounds how many leading regular characters a
	// shadow regexp's match may have and still be sift-eligible.
	MaxRegularPrefix int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{SegSize: 32, ReuseEntries: 32, MaxReuseContent: 32, MaxRegularPrefix: 64}
}

func (c Config) sanitized() Config {
	if c.SegSize <= 0 {
		c.SegSize = 32
	}
	if c.ReuseEntries <= 0 {
		c.ReuseEntries = 32
	}
	if c.MaxReuseContent <= 0 {
		c.MaxReuseContent = 32
	}
	if c.MaxRegularPrefix <= 0 {
		c.MaxRegularPrefix = 64
	}
	return c
}

// Stats counts the content each technique allowed regexps to skip, the
// data behind Fig. 12.
type Stats struct {
	SieveScans        int64 // full scans that also produced an HV
	ShadowScans       int64 // scans served under an HV
	BytesPresented    int64 // content bytes offered to shadow/reuse regexps
	BytesSkippedSift  int64 // bytes never scanned thanks to the HV
	BytesSkippedReuse int64 // bytes skipped by FSM state jumps
	ReuseLookups      int64
	ReuseHits         int64 // PC+ASID+content match with a valid FSM state
	ReuseInvalid      int64 // invalid-miss: entry (re)installed
	ReuseResizes      int64 // size-mismatch updates
	NonSiftable       int64 // shadow scans that had to run in full
}

// Accel is the regexp accelerator front end. Like the string
// accelerator it is a single-owner per-core structure, which makes its
// private scratch buffers safe to reuse across operations.
type Accel struct {
	cfg   Config
	reuse []reuseEntry
	clock uint64
	stats Stats
	mem   strlib.Allocator
	// ShadowReplace scratch, reused across calls.
	touched []bool
	flags   []bool
	edited  []byte
	wins    []window
	// Match-range scratch: sieveMS backs Sieve results, shadowMS backs
	// the shadow scan inside ShadowReplace. Both are consumed before the
	// next call on this (single-owner) accelerator.
	sieveMS  []regex.MatchRange
	shadowMS []regex.MatchRange
	// meta memoizes per-regexp sift eligibility and margin — both are
	// pure functions of the (immutable) FSM, and recomputing them walks
	// the DFA with fresh visit bookkeeping on every shadow scan.
	meta map[*regex.Regex]siftMeta
}

// siftMeta is the memoized per-regexp sifting analysis.
type siftMeta struct {
	siftable bool
	margin   int // maxRegularPrefix result (-1 when unbounded)
}

// siftInfo returns (computing once) the regexp's sift eligibility and
// regular-prefix margin.
func (a *Accel) siftInfo(re *regex.Regex) siftMeta {
	if m, ok := a.meta[re]; ok {
		return m
	}
	p := maxRegularPrefix(re.FSM(), strlib.IsRegular)
	m := siftMeta{
		margin:   p,
		siftable: re.RequiresSpecial(strlib.IsRegular) && p >= 0 && p <= a.cfg.MaxRegularPrefix,
	}
	if a.meta == nil {
		a.meta = make(map[*regex.Regex]siftMeta)
	}
	a.meta[re] = m
	return m
}

// SetMem routes edited-content allocation through m — typically the
// owning core's request arena. Results then follow m's lifetime; see
// strlib.Allocator.
func (a *Accel) SetMem(m strlib.Allocator) { a.mem = m }

// buf allocates a zero-length, capacity-c result slice.
func (a *Accel) buf(c int) []byte {
	if a.mem != nil {
		return a.mem.Buf(c)
	}
	return make([]byte, 0, c)
}

// New builds the accelerator.
func New(cfg Config) *Accel {
	cfg = cfg.sanitized()
	return &Accel{cfg: cfg, reuse: make([]reuseEntry, cfg.ReuseEntries)}
}

// Config returns the configuration.
func (a *Accel) Config() Config { return a.cfg }

// Stats returns a snapshot of the counters.
func (a *Accel) Stats() Stats { return a.stats }

// HV is a hint vector over a specific content length.
type HV struct {
	bits    []uint64
	segSize int
	n       int // content length the HV covers
}

// Covers reports whether the HV is still valid for content of this length.
func (h *HV) Covers(n int) bool { return h != nil && h.n == n }

// flagged reports whether segment s may contain a special character.
func (h *HV) flagged(s int) bool {
	if s < 0 || s >= h.segments() {
		return false
	}
	return h.bits[s/64]&(1<<uint(s%64)) != 0
}

func (h *HV) segments() int { return (h.n + h.segSize - 1) / h.segSize }

// nextFlagged returns the first flagged segment index >= s, or -1. In
// hardware this is the count-leading-zeros step over the HV (§4.6).
func (h *HV) nextFlagged(s int) int {
	for ; s < h.segments(); s++ {
		w := h.bits[s/64] >> uint(s%64)
		if w == 0 {
			// Skip the rest of this word.
			s = (s/64+1)*64 - 1
			continue
		}
		if w&1 != 0 {
			return s
		}
	}
	return -1
}

// Sieve fully scans content with re — the sieve regexp processes
// everything — and produces the HV for the shadows via the string
// accelerator's classification rows. hvGen lets the caller route HV
// generation through its straccel instance; passing nil uses the software
// reference.
// The returned matches alias a reused scratch slice, valid until the
// next Sieve call on this accelerator.
func (a *Accel) Sieve(re *regex.Regex, content []byte, hvGen func([]byte, int) []uint64) ([]regex.MatchRange, *HV) {
	a.stats.SieveScans++
	a.sieveMS = re.FindAllAppend(a.sieveMS[:0], content)
	ms := a.sieveMS
	var bits []uint64
	if hvGen != nil {
		bits = hvGen(content, a.cfg.SegSize)
	} else {
		bits = strlib.ClassScanRef(content, a.cfg.SegSize)
	}
	return ms, &HV{bits: bits, segSize: a.cfg.SegSize, n: len(content)}
}

// Siftable reports whether a shadow regexp can use the HV to skip
// unflagged segments: every match must contain a special character, and
// the number of regular characters a match can start with must be
// bounded (so candidate start positions stay near flagged segments).
func (a *Accel) Siftable(re *regex.Regex) bool {
	return a.siftInfo(re).siftable
}

// Shadow scans content under the hint vector. Match attempts start only
// inside candidate windows: flagged segments expanded left by the
// pattern's maximum regular prefix (a match must reach its first special
// character, which lives in a flagged segment, within that many bytes).
// Results are identical to a full scan — only the work differs. It
// returns the matches and the number of bytes actually examined.
func (a *Accel) Shadow(re *regex.Regex, content []byte, hv *HV) ([]regex.MatchRange, int) {
	return a.shadowAppend(nil, re, content, hv)
}

// shadowAppend is Shadow appending matches into dst — ShadowReplace
// passes the accelerator's reused scratch.
func (a *Accel) shadowAppend(dst []regex.MatchRange, re *regex.Regex, content []byte, hv *HV) ([]regex.MatchRange, int) {
	a.stats.ShadowScans++
	a.stats.BytesPresented += int64(len(content))
	if hv == nil || !hv.Covers(len(content)) || !a.Siftable(re) {
		a.stats.NonSiftable++
		return a.fullScan(dst, re, content)
	}
	margin := a.siftInfo(re).margin
	if margin < 0 {
		margin = 0
	}
	windows := a.candidateWindows(hv, margin, len(content))

	out := dst
	examined := 0 // engine scanned-byte metric over the windows
	pos := 0      // next allowed match start (non-overlap rule)
	for _, w := range windows {
		from := w.start
		if from < pos {
			from = pos
		}
		for from <= w.end {
			s, e, scanned := re.FindInRangeScanned(content, from, w.end)
			examined += scanned
			if s < 0 {
				break
			}
			out = append(out, regex.MatchRange{Start: s, End: e})
			if e == s {
				from = s + 1
			} else {
				from = e
			}
			pos = from
		}
	}
	covered := 0
	for _, w := range windows {
		covered += w.end - w.start
	}
	if skipped := len(content) - covered; skipped > 0 {
		a.stats.BytesSkippedSift += int64(skipped)
	}
	if examined > len(content) {
		examined = len(content)
	}
	return out, examined
}

// fullScan is the unsifted scan, reporting the same engine scanned-byte
// metric a plain FindAll would cost.
func (a *Accel) fullScan(dst []regex.MatchRange, re *regex.Regex, content []byte) ([]regex.MatchRange, int) {
	out := dst
	examined := 0
	pos := 0
	for pos <= len(content) {
		s, e, scanned := re.FindInRangeScanned(content, pos, len(content))
		examined += scanned
		if s < 0 {
			break
		}
		out = append(out, regex.MatchRange{Start: s, End: e})
		if e == s {
			pos = s + 1
		} else {
			pos = e
		}
		if re.Anchored() {
			break
		}
	}
	return out, examined
}

type window struct{ start, end int }

// candidateWindows merges [segStart-margin, segEnd) ranges of flagged
// segments into disjoint windows.
// The returned slice aliases the accelerator's reusable scratch; it is
// only valid until the next candidateWindows call.
func (a *Accel) candidateWindows(hv *HV, margin, n int) []window {
	ws := a.wins[:0]
	for s := hv.nextFlagged(0); s >= 0; s = hv.nextFlagged(s + 1) {
		lo := s*hv.segSize - margin
		hi := (s + 1) * hv.segSize
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		if len(ws) > 0 && lo <= ws[len(ws)-1].end {
			if hi > ws[len(ws)-1].end {
				ws[len(ws)-1].end = hi
			}
			continue
		}
		ws = append(ws, window{lo, hi})
	}
	a.wins = ws
	return ws
}

// maxRegularPrefix returns the maximum number of regular characters a
// match can consume before its first special character, or -1 if
// unbounded (a regular-character loop precedes a special transition).
func maxRegularPrefix(d *regex.DFA, isRegular func(byte) bool) int {
	type color uint8
	const (
		white color = iota
		gray
		black
	)
	n := d.NumStates()
	colors := make([]color, n)
	memo := make([]int, n) // -2 unset, -1 no special edge reachable, else depth
	for i := range memo {
		memo[i] = -2
	}
	unbounded := false

	// hasSpecialEdge: state can consume a special character next.
	hasSpecialEdge := func(s int32) bool {
		for b := 0; b < 256; b++ {
			if !isRegular(byte(b)) && d.Step(s, byte(b)) != regex.Dead {
				return true
			}
		}
		return false
	}

	var dfs func(s int32) int
	dfs = func(s int32) int {
		if unbounded {
			return -1
		}
		if colors[s] == gray {
			unbounded = true
			return -1
		}
		if memo[s] != -2 {
			return memo[s]
		}
		colors[s] = gray
		best := -1
		if hasSpecialEdge(s) {
			best = 0
		}
		for b := 0; b < 256; b++ {
			if !isRegular(byte(b)) {
				continue
			}
			t := d.Step(s, byte(b))
			if t == regex.Dead {
				continue
			}
			sub := dfs(t)
			if unbounded {
				colors[s] = black
				return -1
			}
			if sub >= 0 && sub+1 > best {
				best = sub + 1
			}
		}
		colors[s] = black
		memo[s] = best
		return best
	}
	r := dfs(d.Start())
	if unbounded {
		return -1
	}
	if r < 0 {
		return 0
	}
	return r
}
