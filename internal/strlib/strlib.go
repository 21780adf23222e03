// Package strlib implements the PHP string functions the paper's
// workloads exercise while turning unstructured text into HTML (§4.4):
// finding, matching, replacing, trimming, comparing, case conversion,
// character translation, and the escaping helpers (htmlspecialchars,
// addslashes, nl2br). These are the software baselines the string
// accelerator is measured against; each call reports the subject bytes it
// touched to an optional Observer so the simulation can charge the
// SSE-optimized software cost.
//
// PHP strings carry explicit lengths, so all functions operate on byte
// slices and never assume NUL termination.
package strlib

import "bytes"

// Op identifies a string operation for cost accounting and for the
// stringop[op] ISA extension's 6-bit opcode (§4.6).
type Op uint8

const (
	OpFind Op = iota
	OpReplace
	OpCompare
	OpTrim
	OpToUpper
	OpToLower
	OpTranslate
	OpHTMLSpecial
	OpAddSlashes
	OpNL2BR
	OpConcat

	NumOps
)

// Observer receives one event per string library call.
type Observer interface {
	OnStringOp(op Op, subjectBytes int)
}

// Allocator supplies backing memory for the byte slices the library
// returns — typically a request-scoped arena owned by the calling
// worker. Results allocated through it inherit the allocator's
// lifetime: with an arena they are valid only until the owner's next
// reset, so callers that keep bytes across requests must copy them out.
type Allocator interface {
	// Make returns a zeroed slice of length n.
	Make(n int) []byte
	// Buf returns a zero-length slice with at least the given capacity.
	Buf(capacity int) []byte
}

// Lib is the string library bound to an optional cost observer and an
// optional result allocator. The zero value is usable (no accounting,
// ordinary heap allocation).
type Lib struct {
	Obs Observer
	Mem Allocator
}

func (l *Lib) emit(op Op, n int) {
	if l.Obs != nil {
		l.Obs.OnStringOp(op, n)
	}
}

// mk allocates a length-n result slice via Mem, or the heap without one.
func (l *Lib) mk(n int) []byte {
	if l.Mem != nil {
		return l.Mem.Make(n)
	}
	return make([]byte, n)
}

// buf allocates a zero-length, capacity-c result slice via Mem, or the
// heap without one. Appending past c migrates the data to the ordinary
// heap — correct, just no longer arena-managed.
func (l *Lib) buf(c int) []byte {
	if l.Mem != nil {
		return l.Mem.Buf(c)
	}
	return make([]byte, 0, c)
}

// Find returns the byte index of the first occurrence of pattern in
// subject, or -1 (PHP strpos).
func (l *Lib) Find(subject, pattern []byte) int {
	l.emit(OpFind, len(subject))
	return find(subject, pattern)
}

// find delegates to bytes.Index (two-way/Rabin-Karp with SIMD-accelerated
// single-byte scans) instead of a naive O(n·m) walk. The simulated cost is
// unaffected: emit already charged the SSE-optimized software model for
// the subject bytes; this only speeds up the host running the simulation.
func find(subject, pattern []byte) int {
	if len(pattern) == 1 {
		return bytes.IndexByte(subject, pattern[0])
	}
	return bytes.Index(subject, pattern)
}

// Replace substitutes every occurrence of old with new in subject,
// returning a fresh slice (PHP str_replace) and the replacement count.
func (l *Lib) Replace(subject, old, new []byte) ([]byte, int) {
	l.emit(OpReplace, len(subject))
	if len(old) == 0 {
		out := l.mk(len(subject))
		copy(out, subject)
		return out, 0
	}
	out := l.buf(len(subject))
	count := 0
	i := 0
	for i <= len(subject)-len(old) {
		if match(subject[i:], old) {
			out = append(out, new...)
			i += len(old)
			count++
		} else {
			out = append(out, subject[i])
			i++
		}
	}
	out = append(out, subject[i:]...)
	return out, count
}

func match(s, p []byte) bool {
	if len(s) < len(p) {
		return false
	}
	for i := range p {
		if s[i] != p[i] {
			return false
		}
	}
	return true
}

// Compare returns -1, 0, or 1 comparing a and b lexicographically.
func (l *Lib) Compare(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	l.emit(OpCompare, n)
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// defaultTrimSet is PHP trim's default character set.
var defaultTrimSet = []byte(" \t\n\r\x00\x0b")

// Trim strips default whitespace from both ends (PHP trim). The result
// aliases subject.
func (l *Lib) Trim(subject []byte) []byte {
	l.emit(OpTrim, len(subject))
	lo, hi := 0, len(subject)
	for lo < hi && inSet(subject[lo], defaultTrimSet) {
		lo++
	}
	for hi > lo && inSet(subject[hi-1], defaultTrimSet) {
		hi--
	}
	return subject[lo:hi]
}

func inSet(c byte, set []byte) bool {
	for _, s := range set {
		if c == s {
			return true
		}
	}
	return false
}

// ToUpper returns an upper-cased copy (ASCII, PHP strtoupper).
func (l *Lib) ToUpper(subject []byte) []byte {
	l.emit(OpToUpper, len(subject))
	out := l.mk(len(subject))
	for i, c := range subject {
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

// ToLower returns a lower-cased copy (ASCII, PHP strtolower).
func (l *Lib) ToLower(subject []byte) []byte {
	l.emit(OpToLower, len(subject))
	out := l.mk(len(subject))
	for i, c := range subject {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

// Translate maps single characters from -> to, PHP strtr with equal-length
// from/to strings. Panics if the tables differ in length.
func (l *Lib) Translate(subject, from, to []byte) []byte {
	l.emit(OpTranslate, len(subject))
	if len(from) != len(to) {
		panic("strlib: strtr tables must have equal length")
	}
	var tbl [256]byte
	for i := range tbl {
		tbl[i] = byte(i)
	}
	for i := range from {
		tbl[from[i]] = to[i]
	}
	out := l.mk(len(subject))
	for i, c := range subject {
		out[i] = tbl[c]
	}
	return out
}

// expansion is one expanding op's table: rep[c] replaces byte c ("" copies
// it through) and extra[c] = len(rep[c])-1 is what that adds to the
// result, so extra[c] != 0 marks the special bytes, which are also listed
// in specials. crlf marks nl2br's one exception to the table: a \n right
// after a \r belongs to the \r's break and is copied through.
type expansion struct {
	rep      [256]string
	extra    [256]uint8
	specials []byte // at most maxSpecials, in byte order
	crlf     bool
}

// maxSpecials bounds an expansion's special bytes, so Expand can keep one
// cursor per special on the stack.
const maxSpecials = 4

func newExpansion(rep map[byte]string, crlf bool) *expansion {
	t := expansion{crlf: crlf}
	for c := 0; c < 256; c++ {
		if r, ok := rep[byte(c)]; ok {
			t.rep[c], t.extra[c] = r, uint8(len(r)-1)
			t.specials = append(t.specials, byte(c))
		}
	}
	return &t
}

var expansions = [NumOps]*expansion{
	OpHTMLSpecial: newExpansion(map[byte]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '"': "&quot;"}, false),
	OpAddSlashes:  newExpansion(map[byte]string{'\'': `\'`, '"': `\"`, '\\': `\\`, 0: `\0`}, false),
	OpNL2BR:       newExpansion(map[byte]string{'\n': "<br />\n", '\r': "<br />\r"}, true),
}

// expandScanMin is the subject length from which Expand counts and
// locates special bytes with the vectorized bytes.Count/IndexByte, one
// call per special byte, instead of reading every byte through the table
// twice. Below it the calls cost more than the table loop they replace:
// on a 2-vCPU Xeon the two break even at ~48 B with one special byte and
// at ~64 B with none.
const expandScanMin = 64

// Expand is the kernel behind HTMLSpecialChars, AddSlashes and NL2BR,
// here and in the string accelerator model (op must be one of those
// three): it replaces every special byte of op's table and reports
// nothing to Obs. The result is sized exactly, so it never grows out of
// its allocator, and the bytes between specials move a run at a time.
// nl2br always takes the scan, the one path that knows its \r\n rule.
func (l *Lib) Expand(op Op, subject []byte) []byte {
	t := expansions[op]
	if len(subject) < expandScanMin && !t.crlf {
		return l.expandShort(t, subject)
	}
	return l.expandScan(t, subject)
}

// expandScan is Expand for long subjects: it counts and then locates the
// special bytes with one vectorized call per special byte and copies the
// runs between them.
func (l *Lib) expandScan(t *expansion, subject []byte) []byte {
	// next[k] is the position of the next specials[k] byte (len(subject)
	// when there is none left) and left[k] how many follow it.
	var next, left [maxSpecials]int
	n := len(subject)
	for k, c := range t.specials {
		next[k] = len(subject)
		if left[k] = bytes.Count(subject, t.specials[k:k+1]); left[k] > 0 {
			n += left[k] * int(t.extra[c])
			next[k] = bytes.IndexByte(subject, c)
		}
	}
	if t.crlf {
		n -= bytes.Count(subject, []byte("\r\n")) * int(t.extra['\n'])
	}
	out := l.buf(n)[:n]
	w, run := 0, 0
	for w+len(subject)-run < n { // a special byte is left
		k := 0
		for j := 1; j < len(t.specials); j++ {
			if next[j] < next[k] {
				k = j
			}
		}
		i := next[k]
		if left[k]--; left[k] > 0 {
			next[k] = i + 1 + bytes.IndexByte(subject[i+1:], t.specials[k])
		} else {
			next[k] = len(subject)
		}
		if t.crlf && i > 0 && subject[i] == '\n' && subject[i-1] == '\r' {
			continue // the \r's break covers it
		}
		w += copy(out[w:], subject[run:i])
		w += copy(out[w:], t.rep[subject[i]])
		run = i + 1
	}
	copy(out[w:], subject[run:])
	return out
}

// expandShort is Expand for short subjects: two passes through the table.
func (l *Lib) expandShort(t *expansion, subject []byte) []byte {
	n := len(subject)
	for _, c := range subject {
		n += int(t.extra[c])
	}
	out := l.buf(n)[:n]
	w, run := 0, 0
	if n > len(subject) { // else no special byte: the subject is one run
		for i, c := range subject {
			if t.extra[c] != 0 {
				w += copy(out[w:], subject[run:i])
				w += copy(out[w:], t.rep[c])
				run = i + 1
			}
		}
	}
	copy(out[w:], subject[run:])
	return out
}

// HTMLSpecialChars escapes &, <, >, and double quote as HTML entities
// (PHP htmlspecialchars with default flags, minus single-quote handling
// differences).
func (l *Lib) HTMLSpecialChars(subject []byte) []byte {
	l.emit(OpHTMLSpecial, len(subject))
	return l.Expand(OpHTMLSpecial, subject)
}

// AddSlashes backslash-escapes quotes, backslashes, and NULs (PHP
// addslashes).
func (l *Lib) AddSlashes(subject []byte) []byte {
	l.emit(OpAddSlashes, len(subject))
	return l.Expand(OpAddSlashes, subject)
}

// NL2BR inserts "<br />" before each newline (PHP nl2br). \r\n pairs get
// a single break.
func (l *Lib) NL2BR(subject []byte) []byte {
	l.emit(OpNL2BR, len(subject))
	return l.Expand(OpNL2BR, subject)
}

// Concat joins the parts into a fresh slice, charging for the total bytes
// moved (PHP's `.` operator and implode).
func (l *Lib) Concat(parts ...[]byte) []byte {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	l.emit(OpConcat, total)
	out := l.buf(total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// IsRegular reports whether c is a "regular" character under the paper's
// classification for content sifting (§4.5): {A-Z a-z 0-9 _ . , -} plus,
// in our HTML-oriented workloads, space. Everything else is "special".
func IsRegular(c byte) bool { return regular[c] }

// regular is IsRegular as a table, the one read per byte of a hint-vector
// scan.
var regular = func() (t [256]bool) {
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.,- ") {
		t[c] = true
	}
	return t
}()

// ClassScanRef returns a bitmap with one bit per segment of segSize
// bytes, set when the segment contains at least one special
// (non-regular) character. This is the software reference for the hint
// vector (HV) the string accelerator produces for the sieve regexp
// (§4.5).
func ClassScanRef(subject []byte, segSize int) []uint64 {
	if segSize <= 0 {
		segSize = 32
	}
	nseg := (len(subject) + segSize - 1) / segSize
	hv := make([]uint64, (nseg+63)/64)
	for s := 0; s < nseg; s++ {
		lo := s * segSize
		for _, c := range subject[lo:min(lo+segSize, len(subject))] {
			if !regular[c] {
				hv[s/64] |= 1 << uint(s%64)
				break
			}
		}
	}
	return hv
}
