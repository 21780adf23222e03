package regex

import (
	"fmt"
)

// Observer receives cost events from regex operations so the simulation
// can charge the software character-at-a-time scan cost.
type Observer interface {
	// OnScan fires after a match attempt scanned n input bytes.
	OnScan(n int)
	// OnCompile fires once per compilation with the FSM table size.
	OnCompile(states int)
}

// Regex is a compiled pattern.
type Regex struct {
	dfa          *DFA
	lbDFA        *DFA // fixed-length lookbehind assertion, or nil
	lbLen        int
	anchored     bool
	endAnchored  bool
	matchesEmpty bool
	firstBytes   [256]bool
	Obs          Observer
}

// Compile parses and compiles a pattern into its FSM table.
func Compile(pattern string) (*Regex, error) {
	p, err := parse(pattern)
	if err != nil {
		return nil, err
	}
	dfa, err := buildDFA(buildNFA(p.root))
	if err != nil {
		return nil, fmt.Errorf("%w (pattern %q)", err, pattern)
	}
	r := &Regex{
		dfa:         dfa,
		anchored:    p.anchored,
		endAnchored: p.endAnchored,
		lbLen:       p.lbLen,
	}
	if p.lookbehind != nil {
		lb, err := buildDFA(buildNFA(p.lookbehind))
		if err != nil {
			return nil, fmt.Errorf("%w (lookbehind of %q)", err, pattern)
		}
		r.lbDFA = lb
	}
	r.matchesEmpty = dfa.Accepting(dfa.Start())
	for b := 0; b < 256; b++ {
		r.firstBytes[b] = dfa.Step(dfa.Start(), byte(b)) != Dead
	}
	return r, nil
}

// FSM returns the compiled DFA ("FSM table").
func (r *Regex) FSM() *DFA { return r.dfa }

// NumStates returns the FSM table size.
func (r *Regex) NumStates() int { return r.dfa.NumStates() }

// Anchored reports whether the pattern begins with ^.
func (r *Regex) Anchored() bool { return r.anchored }

func (r *Regex) emitScan(n int) {
	if r.Obs != nil {
		r.Obs.OnScan(n)
	}
}

// FindInRangeScanned returns the leftmost-longest match whose start
// position lies in [from, to] (the match itself may extend past to), or
// (-1, -1), plus the engine's scanned-byte cost metric; it emits no
// observer event. The content sifting shadow scan uses it to confine
// match attempts to candidate windows around flagged segments, batching
// many bounded searches into one logical scan whose cost it aggregates
// itself.
func (r *Regex) FindInRangeScanned(input []byte, from, to int) (start, end, scanned int) {
	return r.findBounded(input, from, to)
}

// findFrom implements the sequential search. It returns the bytes it
// examined so the cost model can charge them. Matching the paper's
// characterization of software engines as a character-at-a-time
// sequential processing model (§4.5), every byte the scan passes over is
// charged, including bytes consumed by the first-byte skip loop (the
// skip only avoids re-walking the DFA, not touching the byte).
func (r *Regex) findFrom(input []byte, from int) (int, int, int) {
	return r.findBounded(input, from, len(input))
}

// findBounded is findFrom with match starts restricted to [from, to].
func (r *Regex) findBounded(input []byte, from, to int) (int, int, int) {
	scanned := 0
	if from < 0 {
		from = 0
	}
	if to > len(input) {
		to = len(input)
	}
	for s := from; s <= to; s++ {
		if r.anchored && s > 0 {
			break
		}
		// First-byte skip: cheap scan while no match can start here.
		// Anchored patterns must not slide the start position.
		// The skip loop must not run past the caller's start bound:
		// bounded searches (content sifting windows) would otherwise be
		// charged for the bytes they exist to skip.
		if !r.matchesEmpty && !r.anchored {
			skipped := 0
			for s < len(input) && s <= to && !r.firstBytes[input[s]] {
				s++
				skipped++
			}
			scanned += skipped
			if s >= len(input) || s > to {
				break
			}
		}
		st := r.dfa.Start()
		best := -1
		if r.dfa.Accepting(st) && (!r.endAnchored || s == len(input)) {
			best = s
		}
		for i := s; i < len(input); i++ {
			st = r.dfa.Step(st, input[i])
			scanned++
			if st == Dead {
				break
			}
			if r.dfa.Accepting(st) && (!r.endAnchored || i+1 == len(input)) {
				best = i + 1
			}
		}
		if best >= 0 && r.lookbehindOK(input, s) {
			return s, best, scanned
		}
	}
	return -1, -1, scanned
}

// lookbehindOK verifies the fixed-length lookbehind assertion against the
// lbLen bytes preceding the match start.
func (r *Regex) lookbehindOK(input []byte, start int) bool {
	if r.lbDFA == nil {
		return true
	}
	if start < r.lbLen {
		return false
	}
	st := r.lbDFA.Run(r.lbDFA.Start(), input[start-r.lbLen:start])
	return r.lbDFA.Accepting(st)
}

// MatchRange is one match occurrence.
type MatchRange struct{ Start, End int }

// FindAll returns all non-overlapping leftmost-longest matches.
func (r *Regex) FindAll(input []byte) []MatchRange {
	return r.FindAllAppend(nil, input)
}

// FindAllAppend is FindAll appending into dst — callers on hot paths
// pass a reused scratch slice (typically dst[:0]) to avoid allocating a
// fresh result per scan. The scan cost reported to the observer is
// identical to FindAll's.
func (r *Regex) FindAllAppend(dst []MatchRange, input []byte) []MatchRange {
	out := dst
	pos := 0
	total := 0
	for pos <= len(input) {
		s, e, scanned := r.findFrom(input, pos)
		total += scanned
		if s < 0 {
			break
		}
		out = append(out, MatchRange{s, e})
		if e == s { // empty match: advance to avoid looping
			pos = s + 1
		} else {
			pos = e
		}
		if r.anchored {
			break
		}
	}
	r.emitScan(total)
	return out
}

// ReplaceAll substitutes every match with repl, returning a fresh slice
// and the number of replacements.
func (r *Regex) ReplaceAll(input, repl []byte) ([]byte, int) {
	ms := r.FindAll(input)
	if len(ms) == 0 {
		out := make([]byte, len(input))
		copy(out, input)
		return out, 0
	}
	var out []byte
	prev := 0
	for _, m := range ms {
		out = append(out, input[prev:m.Start]...)
		out = append(out, repl...)
		prev = m.End
	}
	out = append(out, input[prev:]...)
	return out, len(ms)
}

// RequiresSpecial reports whether every possible match must contain at
// least one "special" character under the isRegular classification. A
// true result makes the pattern eligible for content sifting: segments
// containing only regular characters cannot contain a match and can be
// skipped wholesale (§4.5).
func (r *Regex) RequiresSpecial(isRegular func(byte) bool) bool {
	if r.matchesEmpty {
		return false
	}
	return !r.dfa.acceptsOnly(isRegular)
}

// CompileObserved compiles a pattern, attaches the observer, and reports
// the FSM construction cost through it.
func CompileObserved(pattern string, obs Observer) (*Regex, error) {
	r, err := Compile(pattern)
	if err != nil {
		return nil, err
	}
	r.Obs = obs
	if obs != nil {
		obs.OnCompile(r.NumStates())
	}
	return r, nil
}
