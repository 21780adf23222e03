// Package regex implements the regular expression engine the PHP
// workloads run on: a PCRE-style pattern subset compiled through a
// Thompson NFA into a DFA — the "FSM table" the paper's regexp
// accelerator stores state indexes into (§4.5). The baseline matcher is
// deliberately a character-at-a-time sequential scan, matching the
// processing model whose cost the paper's Content Sifting and Content
// Reuse techniques avoid.
//
// Supported syntax: literals, '.', escapes (\d \D \w \W \s \S \n \r \t
// and escaped metacharacters), character classes with ranges and
// negation, grouping '()', alternation '|', the quantifiers '*' '+' '?',
// the anchors '^' (pattern start) and '$' (pattern end), and a
// fixed-length lookbehind '(?<=...)' at the start of the pattern, which
// is the form the paper's WordPress code snippet (Fig. 11) uses.
package regex

import (
	"errors"
	"fmt"
)

// charSet is a 256-bit byte-class bitmap.
type charSet [4]uint64

func (s *charSet) add(b byte)           { s[b>>6] |= 1 << (b & 63) }
func (s *charSet) contains(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }

func (s *charSet) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		s.add(byte(b))
	}
}

func (s *charSet) negate() {
	for i := range s {
		s[i] = ^s[i]
	}
}

func (s *charSet) union(o charSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

func singleton(b byte) charSet {
	var s charSet
	s.add(b)
	return s
}

func anyChar() charSet {
	var s charSet
	s.negate() // '.' in PCRE without DOTALL excludes \n
	s[uint8('\n')>>6] &^= 1 << ('\n' & 63)
	return s
}

// AST node kinds.
type nodeKind uint8

const (
	nEmpty nodeKind = iota
	nChar           // character class (single bytes are one-bit classes)
	nConcat
	nAlt
	nStar
	nPlus
	nQuest
)

type node struct {
	kind nodeKind
	set  charSet // nChar
	subs []*node // nConcat, nAlt, nStar/nPlus/nQuest (one sub)
}

// parsed is the output of the parser.
type parsed struct {
	root        *node
	anchored    bool  // leading ^
	endAnchored bool  // trailing $
	lookbehind  *node // fixed-length assertion preceding the match
	lbLen       int
}

type parser struct {
	src []byte
	pos int
}

var errUnexpectedEnd = errors.New("regex: unexpected end of pattern")

func parse(pattern string) (*parsed, error) {
	p := &parser{src: []byte(pattern)}
	out := &parsed{}

	if p.peek() == '^' {
		p.pos++
		out.anchored = true
	}
	if p.hasPrefix("(?<=") {
		p.pos += 4
		lb, err := p.alternation()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, errors.New("regex: unterminated lookbehind")
		}
		p.pos++
		n, ok := fixedLen(lb)
		if !ok {
			return nil, errors.New("regex: lookbehind must have fixed length")
		}
		out.lookbehind = lb
		out.lbLen = n
	}

	root, err := p.alternation()
	if err != nil {
		return nil, err
	}
	// A trailing $ anchors the match end. (Only supported at the very end.)
	if len(p.src) > 0 && p.pos == len(p.src)-1 && p.src[p.pos] == '$' {
		p.pos++
		out.endAnchored = true
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("regex: unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	out.root = root
	return out, nil
}

func (p *parser) hasPrefix(s string) bool {
	return p.pos+len(s) <= len(p.src) && string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *parser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) alternation() (*node, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	subs := []*node{first}
	for p.peek() == '|' {
		p.pos++
		nxt, err := p.concat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, nxt)
	}
	if len(subs) == 1 {
		return first, nil
	}
	return &node{kind: nAlt, subs: subs}, nil
}

func (p *parser) concat() (*node, error) {
	var subs []*node
	for {
		c := p.peek()
		if c == 0 && p.pos >= len(p.src) {
			break
		}
		if c == '|' || c == ')' {
			break
		}
		if c == '$' && p.pos == len(p.src)-1 {
			break // handled as end anchor by parse
		}
		atom, err := p.repeat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, atom)
	}
	switch len(subs) {
	case 0:
		return &node{kind: nEmpty}, nil
	case 1:
		return subs[0], nil
	}
	return &node{kind: nConcat, subs: subs}, nil
}

func (p *parser) repeat() (*node, error) {
	atom, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '*':
			p.pos++
			atom = &node{kind: nStar, subs: []*node{atom}}
		case '+':
			p.pos++
			atom = &node{kind: nPlus, subs: []*node{atom}}
		case '?':
			p.pos++
			atom = &node{kind: nQuest, subs: []*node{atom}}
		case '{':
			rep, ok, err := p.bounded(atom)
			if err != nil {
				return nil, err
			}
			if !ok {
				// Not a quantifier ('{' as a literal, PCRE-compatible).
				return atom, nil
			}
			atom = rep
		default:
			return atom, nil
		}
	}
}

// maxBoundedRepeat caps {n,m} expansion so pathological patterns cannot
// blow up the NFA.
const maxBoundedRepeat = 256

// bounded parses a {n}, {n,}, or {n,m} quantifier applied to atom,
// expanding it into concatenated copies (the standard construction).
// Returns ok=false without consuming input when the brace does not start
// a well-formed quantifier.
func (p *parser) bounded(atom *node) (*node, bool, error) {
	start := p.pos
	p.pos++ // consume '{'
	readInt := func() (int, bool) {
		begin := p.pos
		v := 0
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			if v <= maxBoundedRepeat { // clamp, keep consuming digits
				v = v*10 + int(p.src[p.pos]-'0')
			}
			p.pos++
		}
		return v, p.pos > begin
	}
	lo, ok := readInt()
	if !ok {
		p.pos = start
		return nil, false, nil
	}
	hi := lo
	unbounded := false
	if p.peek() == ',' {
		p.pos++
		if p.peek() == '}' {
			unbounded = true
		} else {
			hi, ok = readInt()
			if !ok {
				p.pos = start
				return nil, false, nil
			}
		}
	}
	if p.peek() != '}' {
		p.pos = start
		return nil, false, nil
	}
	p.pos++
	if lo > maxBoundedRepeat || hi > maxBoundedRepeat {
		return nil, false, fmt.Errorf("regex: repetition count exceeds %d", maxBoundedRepeat)
	}
	if !unbounded && hi < lo {
		return nil, false, fmt.Errorf("regex: invalid repetition {%d,%d}", lo, hi)
	}
	// Expansion: atom{lo} followed by (hi-lo) optional copies, or atom*
	// for an unbounded tail.
	var subs []*node
	for i := 0; i < lo; i++ {
		subs = append(subs, cloneNode(atom))
	}
	if unbounded {
		subs = append(subs, &node{kind: nStar, subs: []*node{cloneNode(atom)}})
	} else {
		for i := lo; i < hi; i++ {
			subs = append(subs, &node{kind: nQuest, subs: []*node{cloneNode(atom)}})
		}
	}
	switch len(subs) {
	case 0:
		return &node{kind: nEmpty}, true, nil
	case 1:
		return subs[0], true, nil
	}
	return &node{kind: nConcat, subs: subs}, true, nil
}

// cloneNode deep-copies an AST node for quantifier expansion.
func cloneNode(n *node) *node {
	out := &node{kind: n.kind, set: n.set}
	for _, s := range n.subs {
		out.subs = append(out.subs, cloneNode(s))
	}
	return out
}

func (p *parser) atom() (*node, error) {
	if p.pos >= len(p.src) {
		return nil, errUnexpectedEnd
	}
	c := p.src[p.pos]
	switch c {
	case '(':
		p.pos++
		// Tolerate the non-capturing group marker.
		if p.hasPrefix("?:") {
			p.pos += 2
		}
		sub, err := p.alternation()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, errors.New("regex: missing )")
		}
		p.pos++
		return sub, nil
	case '[':
		p.pos++
		set, err := p.class()
		if err != nil {
			return nil, err
		}
		return &node{kind: nChar, set: set}, nil
	case '.':
		p.pos++
		return &node{kind: nChar, set: anyChar()}, nil
	case '\\':
		p.pos++
		set, err := p.escape()
		if err != nil {
			return nil, err
		}
		return &node{kind: nChar, set: set}, nil
	case '*', '+', '?':
		return nil, fmt.Errorf("regex: dangling quantifier %q at %d", c, p.pos)
	case '^':
		return nil, errors.New("regex: ^ is only supported at the pattern start")
	case '$':
		return nil, errors.New("regex: $ is only supported at the pattern end")
	default:
		p.pos++
		return &node{kind: nChar, set: singleton(c)}, nil
	}
}

func (p *parser) escape() (charSet, error) {
	if p.pos >= len(p.src) {
		return charSet{}, errUnexpectedEnd
	}
	c := p.src[p.pos]
	p.pos++
	var s charSet
	switch c {
	case 'd':
		s.addRange('0', '9')
	case 'D':
		s.addRange('0', '9')
		s.negate()
	case 'w':
		s.addRange('a', 'z')
		s.addRange('A', 'Z')
		s.addRange('0', '9')
		s.add('_')
	case 'W':
		s.addRange('a', 'z')
		s.addRange('A', 'Z')
		s.addRange('0', '9')
		s.add('_')
		s.negate()
	case 's':
		for _, b := range []byte(" \t\n\r\f\v") {
			s.add(b)
		}
	case 'S':
		for _, b := range []byte(" \t\n\r\f\v") {
			s.add(b)
		}
		s.negate()
	case 'n':
		s.add('\n')
	case 'r':
		s.add('\r')
	case 't':
		s.add('\t')
	case 'f':
		s.add('\f')
	case 'v':
		s.add('\v')
	case '0':
		s.add(0)
	default:
		// Escaped metacharacter or punctuation: a literal.
		s.add(c)
	}
	return s, nil
}

func (p *parser) class() (charSet, error) {
	var s charSet
	negate := false
	if p.peek() == '^' {
		negate = true
		p.pos++
	}
	first := true
	for {
		if p.pos >= len(p.src) {
			return s, errors.New("regex: unterminated character class")
		}
		c := p.src[p.pos]
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		var lo charSet
		if c == '\\' {
			p.pos++
			e, err := p.escape()
			if err != nil {
				return s, err
			}
			lo = e
		} else {
			p.pos++
			lo = singleton(c)
		}
		// Range? Only when the left side was a single literal byte.
		if p.peek() == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' && c != '\\' && popcount(lo) == 1 {
			p.pos++ // consume '-'
			hiC := p.src[p.pos]
			if hiC == '\\' {
				p.pos++
				e, err := p.escape()
				if err != nil {
					return s, err
				}
				if popcount(e) != 1 {
					return s, errors.New("regex: invalid range endpoint")
				}
				hiC = lowestByte(e)
			} else {
				p.pos++
			}
			if hiC < c {
				return s, fmt.Errorf("regex: inverted range %c-%c", c, hiC)
			}
			s.addRange(c, hiC)
			continue
		}
		s.union(lo)
	}
	if negate {
		s.negate()
	}
	return s, nil
}

func popcount(s charSet) int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func lowestByte(s charSet) byte {
	for b := 0; b < 256; b++ {
		if s.contains(byte(b)) {
			return byte(b)
		}
	}
	return 0
}

// fixedLen computes the exact match length of an AST if it is fixed,
// used to validate lookbehind assertions.
func fixedLen(n *node) (int, bool) {
	switch n.kind {
	case nEmpty:
		return 0, true
	case nChar:
		return 1, true
	case nConcat:
		total := 0
		for _, s := range n.subs {
			l, ok := fixedLen(s)
			if !ok {
				return 0, false
			}
			total += l
		}
		return total, true
	case nAlt:
		first, ok := fixedLen(n.subs[0])
		if !ok {
			return 0, false
		}
		for _, s := range n.subs[1:] {
			l, ok := fixedLen(s)
			if !ok || l != first {
				return 0, false
			}
		}
		return first, true
	default: // quantifiers are variable-length
		return 0, false
	}
}
