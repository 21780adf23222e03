// Package straccel implements the paper's generalized string accelerator
// (§4.4): a single datapath that serves many PHP string functions by
// sharing common hardware sub-blocks instead of dedicating an accelerator
// per function.
//
// Modeled sub-blocks (Fig. 10):
//
//   - ASCII compare plane: a matching matrix of configurable pattern rows
//     by subject-block columns, populated combinationally — every cell is
//     independent, so a whole block is compared per cycle. Trim's
//     set-membership rows are modeled as a column-mask table (col[c] is
//     nonzero iff a row fires on byte c), substitution rows as a 256-entry
//     output lookup.
//   - Diagonal AND gates: consecutive-character matches for multi-byte
//     patterns (string_find of "abc" in "babc" in the paper's example).
//     The host computes what they and the priority encoder report — the
//     first full match — with bytes.Index; the model charges, in closed
//     form, every block the diagonal would enter: each block up to the
//     one holding the match's last byte, or all of them when there is
//     none (the cell-at-a-time oracle in straccel_test.go walks the
//     diagonal and holds results and Stats equal).
//   - Priority encoder: index of the first valid match (the first column
//     that completes the diagonal; the lowest firing row for
//     substitution).
//   - Output logic: forwards substituted ASCII values for functions that
//     write a result string (translate, case conversion, escaping).
//   - Shifting logic: aligns results to the destination offset.
//   - Wrap-around buffering: diagonal state carried between blocks so
//     matches spanning block boundaries are found.
//   - Six matrix rows support inequality (range) comparisons for
//     case-conversion and character-class operations.
//
// The accelerator processes Config.BlockBytes subject bytes per
// invocation step (the synthesized design handles a 64-character block in
// at most 3 cycles at 2 GHz); Stats records blocks and active matrix
// cells so the simulation can charge cycles and clock-gated energy.
// Invariant: host shortcuts may skip cells, never blocks — every block
// the hardware would enter is charged at its full length.
package straccel

import (
	"bytes"

	"repro/internal/strlib"
)

// maxRows is the widest matrix the model holds; wider configurations are
// clamped to it (the paper's matrix is 32 rows).
const maxRows = 64

// Config sizes the matching matrix.
type Config struct {
	// Rows is the number of pattern rows (the longest pattern the matrix
	// holds at once).
	Rows int
	// InequalityRows is how many rows support range comparisons
	// (paper: 6).
	InequalityRows int
	// BlockBytes is the subject bytes processed per matrix pass
	// (paper: 64).
	BlockBytes int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{Rows: 32, InequalityRows: 6, BlockBytes: 64}
}

func (c Config) sanitized() Config {
	if c.Rows <= 0 {
		c.Rows = 32
	}
	if c.Rows > maxRows {
		c.Rows = maxRows
	}
	if c.InequalityRows < 0 {
		c.InequalityRows = 0
	}
	if c.InequalityRows > c.Rows {
		c.InequalityRows = c.Rows
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 64
	}
	return c
}

// row is one configured matrix row: an inequality row that fires on
// lo <= c <= hi and shifts the byte by sub, a signed delta. (Equality
// rows never sit in a saved configuration: every operation that uses
// them programs them from its own operands.)
type row struct {
	lo, hi byte
	sub    byte
}

// table flattens the rows into the output logic's 256-entry lookup: each
// byte maps to the substitution of the lowest row that fires on it (the
// priority encoder's choice), or to itself when none does.
func (m MatrixConfig) table() (t [256]byte) {
	for i := range t {
		c := byte(i)
		t[i] = c
		for _, r := range m.rows {
			if c >= r.lo && c <= r.hi {
				t[i] = byte(int(c) + int(int8(r.sub)))
				break
			}
		}
	}
	return t
}

// identity is the output lookup of an empty matrix: every byte forwarded.
var identity = MatrixConfig{}.table()

// MatrixConfig is a saved matching-matrix configuration. strwriteconfig
// stores one before a context switch and strreadconfig restores it
// (§4.6).
type MatrixConfig struct {
	rows []row
}

// Stats counts accelerator activity for cycle and energy accounting.
type Stats struct {
	Ops         int64 // accelerated string operations
	Blocks      int64 // matrix passes (one block of subject bytes each)
	Bytes       int64 // subject bytes streamed through the matrix
	ActiveCells int64 // matrix cells that actually switched
	GatedCells  int64 // cells clock-gated off (unused rows)
	Bypasses    int64 // operations that fell back to software
	ConfigLoads int64 // strreadconfig invocations
	ConfigSaves int64 // strwriteconfig invocations
}

// Accel is the string accelerator. Not safe for concurrent use; it is a
// per-core structure — which is also what makes its private column-mask
// table safe to reuse across operations.
type Accel struct {
	cfg   Config
	cur   MatrixConfig
	stats Stats
	// sw is the software fallback and the expansion kernel of the
	// escaping ops and nl2br; its Mem allocates every result string.
	sw strlib.Lib
	// col is the compare plane: bit k of col[c] is set iff pattern row k
	// fires on byte c. All zero between operations — an operation sets
	// the entries of its own row bytes and clears the same ones after.
	col [256]uint64
}

// New builds an accelerator.
func New(cfg Config) *Accel {
	return &Accel{cfg: cfg.sanitized()}
}

// SetMem routes result-string allocation (here and in the software
// fallback) through m — typically the owning core's request arena.
// Results then follow m's lifetime; see strlib.Allocator.
func (a *Accel) SetMem(m strlib.Allocator) { a.sw.Mem = m }

// mk allocates a length-n result slice via the configured allocator.
func (a *Accel) mk(n int) []byte {
	if a.sw.Mem != nil {
		return a.sw.Mem.Make(n)
	}
	return make([]byte, n)
}

// buf allocates a zero-length, capacity-c result slice.
func (a *Accel) buf(c int) []byte {
	if a.sw.Mem != nil {
		return a.sw.Mem.Buf(c)
	}
	return make([]byte, 0, c)
}

// Stats returns a snapshot of the activity counters.
func (a *Accel) Stats() Stats { return a.stats }

// SaveConfig implements strwriteconfig: it returns the current matrix
// configuration for the OS to stash across a context switch.
func (a *Accel) SaveConfig() MatrixConfig {
	a.stats.ConfigSaves++
	saved := MatrixConfig{rows: append([]row(nil), a.cur.rows...)}
	return saved
}

// LoadConfig implements strreadconfig: it repopulates the matching matrix
// rows if they are not already configured.
func (a *Accel) LoadConfig(c MatrixConfig) {
	a.stats.ConfigLoads++
	a.cur = MatrixConfig{rows: append([]row(nil), c.rows...)}
}

// clearCols zeroes the column masks of the given row bytes.
func (a *Accel) clearCols(rows []byte) {
	for _, c := range rows {
		a.col[c] = 0
	}
}

// charge accounts one matrix pass over the block for nRows active rows.
func (a *Accel) charge(blockLen, nRows int) {
	a.stats.Blocks++
	a.stats.Bytes += int64(blockLen)
	a.stats.ActiveCells += int64(blockLen * nRows)
	a.stats.GatedCells += int64(blockLen * (a.cfg.Rows - nRows))
}

// Find implements stringop[find] (PHP strpos): the matrix rows hold the
// pattern, diagonal ANDs detect consecutive matches, and the priority
// encoder returns the first full-match position. Patterns longer than the
// matrix fall back to software.
func (a *Accel) Find(subject, pattern []byte) (int, bool) {
	if len(pattern) > a.cfg.Rows || len(pattern) == 0 {
		a.stats.Bypasses++
		return a.sw.Find(subject, pattern), false
	}
	a.stats.Ops++
	return a.matchScan(subject, pattern), true
}

// matchScan finds the first occurrence of pattern (1..Rows bytes) in
// subject and charges the blocks the matrix enters to find it — every
// block up to the one holding the match's last byte, all of them when
// there is no match, none for an empty subject — but not the per-op
// counter.
func (a *Accel) matchScan(subject, pattern []byte) int {
	pos := bytes.Index(subject, pattern)
	n := len(subject)
	if pos >= 0 {
		last := pos + len(pattern) - 1
		n = min(n, (last/a.cfg.BlockBytes+1)*a.cfg.BlockBytes)
	}
	if n > 0 {
		a.chargeBlocks(n, len(pattern))
	}
	return pos
}

// Compare implements stringop[compare]: blocks of both strings are
// XOR-compared in parallel; the priority encoder finds the first
// difference.
func (a *Accel) Compare(x, y []byte) int {
	a.stats.Ops++
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for base := 0; base < n; base += a.cfg.BlockBytes {
		end := base + a.cfg.BlockBytes
		if end > n {
			end = n
		}
		a.charge(end-base, 1)
		for i := base; i < end; i++ {
			switch {
			case x[i] < y[i]:
				return -1
			case x[i] > y[i]:
				return 1
			}
		}
	}
	switch {
	case len(x) < len(y):
		return -1
	case len(x) > len(y):
		return 1
	}
	return 0
}

// Case conversion is one inequality row ('a' <= c <= 'z', or the upper-
// case pair) whose output logic shifts the byte by 32.
var (
	upperTab = RangeRow('a', 'z', 0xE0).table() // 0xE0 = -32
	lowerTab = RangeRow('A', 'Z', 32).table()
)

// ToUpper implements stringop[toupper].
func (a *Accel) ToUpper(subject []byte) []byte { return a.caseConvert(subject, &upperTab) }

// ToLower implements stringop[tolower].
func (a *Accel) ToLower(subject []byte) []byte { return a.caseConvert(subject, &lowerTab) }

func (a *Accel) caseConvert(subject []byte, tab *[256]byte) []byte {
	a.stats.Ops++
	if len(subject) == 0 {
		a.charge(0, 1)
	}
	return a.substitute(subject, tab, 1)
}

// Translate implements stringop[translate] (PHP strtr with equal-length
// tables): one equality row per source character with its substitution
// output. Tables wider than the matrix fall back to software.
func (a *Accel) Translate(subject, from, to []byte) ([]byte, bool) {
	if len(from) != len(to) {
		panic("straccel: translate tables must have equal length")
	}
	if len(from) > a.cfg.Rows {
		a.stats.Bypasses++
		return a.sw.Translate(subject, from, to), false
	}
	a.stats.Ops++
	// The last pair takes the lowest row, so a repeated from byte maps
	// the way strtr (and strlib) has it: the last duplicate wins.
	tab := identity
	for r := range from {
		tab[from[r]] = to[r]
	}
	return a.substitute(subject, &tab, max(len(from), 1)), true
}

// substitute streams subject through the output logic: every byte is
// replaced by its tab entry, one matrix pass of nRows rows per block.
func (a *Accel) substitute(subject []byte, tab *[256]byte, nRows int) []byte {
	out := a.mk(len(subject))
	for base := 0; base < len(subject); base += a.cfg.BlockBytes {
		end := base + a.cfg.BlockBytes
		if end > len(subject) {
			end = len(subject)
		}
		a.charge(end-base, nRows)
		for i := base; i < end; i++ {
			out[i] = tab[subject[i]]
		}
	}
	return out
}

// Trim implements stringop[trim]: set-membership rows detect the trim
// characters; only the string's edges stream through the matrix.
func (a *Accel) Trim(subject []byte, cutset []byte) []byte {
	a.stats.Ops++
	for _, c := range cutset {
		a.col[c] = 1
	}
	defer a.clearCols(cutset)
	lo, hi := 0, len(subject)
	for lo < hi && a.col[subject[lo]] != 0 {
		lo++
	}
	for hi > lo && a.col[subject[hi-1]] != 0 {
		hi--
	}
	edge := len(subject) - (hi - lo)
	blocks := (edge+a.cfg.BlockBytes-1)/a.cfg.BlockBytes + 1
	for i := 0; i < blocks; i++ {
		n := edge
		if n > a.cfg.BlockBytes {
			n = a.cfg.BlockBytes
		}
		a.charge(n, max(len(cutset), 1))
		edge -= n
	}
	return subject[lo:hi]
}

// Replace implements stringop[replace] (PHP str_replace) by combining the
// matching matrix with the shifting logic. Patterns wider than the matrix
// fall back to software.
func (a *Accel) Replace(subject, old, new []byte) ([]byte, int, bool) {
	if len(old) > a.cfg.Rows || len(old) == 0 {
		a.stats.Bypasses++
		out, n := a.sw.Replace(subject, old, new)
		return out, n, false
	}
	a.stats.Ops++
	out := a.buf(len(subject))
	count := 0
	pos := 0
	for pos < len(subject) {
		rel := a.matchScan(subject[pos:], old)
		if rel < 0 {
			out = append(out, subject[pos:]...)
			break
		}
		out = append(out, subject[pos:pos+rel]...)
		out = append(out, new...)
		pos += rel + len(old)
		count++
	}
	return out, count, true
}

// HTMLSpecialChars implements the escaping operation PHP workloads run
// constantly: equality rows detect & < > ", the priority encoder locates
// them, and the shifting logic splices the entities into the output.
func (a *Accel) HTMLSpecialChars(subject []byte) []byte {
	return a.expand(strlib.OpHTMLSpecial, subject)
}

// expand streams subject through four equality rows, one matrix pass per
// block, and splices in op's expansions. The bytes come from strlib's
// kernel in one host-side pass; the charges are the hardware's, block by
// block — except that an empty subject never enters the matrix here
// (chargeBlocks alone would charge it one zero-length block).
func (a *Accel) expand(op strlib.Op, subject []byte) []byte {
	a.stats.Ops++
	if len(subject) > 0 {
		a.chargeBlocks(len(subject), 4)
	}
	return a.sw.Expand(op, subject)
}

// HintVector generates the content-sifting HV for the regexp accelerator
// (§4.5): range rows classify each byte as regular or special, and the
// per-segment OR reduction produces one bit per segment. This is one of
// the "complex string functions" configured via strreadconfig.
func (a *Accel) HintVector(subject []byte, segSize int) []uint64 {
	a.stats.Ops++
	if segSize <= 0 {
		segSize = 32
	}
	a.chargeBlocks(len(subject), a.cfg.InequalityRows)
	return strlib.ClassScanRef(subject, segSize)
}
