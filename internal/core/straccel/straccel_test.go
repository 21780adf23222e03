package straccel

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/strlib"
)

var cutset = []byte(" \t\n\r\x00\x0b")

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.BlockBytes != 64 || c.InequalityRows != 6 {
		t.Errorf("paper config: 64-byte blocks, 6 inequality rows: %+v", c)
	}
}

func TestConfigSanitize(t *testing.T) {
	c := Config{InequalityRows: 100, Rows: 8}.sanitized()
	if c.InequalityRows > c.Rows {
		t.Errorf("inequality rows must fit the matrix: %+v", c)
	}
	c = Config{}.sanitized()
	if c.Rows <= 0 || c.BlockBytes <= 0 {
		t.Errorf("zero config not sanitized: %+v", c)
	}
	// Wider matrices are clamped to 64 rows, and a 64-byte pattern still
	// runs in hardware.
	a := New(Config{Rows: 100, BlockBytes: 64})
	if a.cfg.Rows != 64 {
		t.Fatalf("Rows = %d, want clamp to 64", a.cfg.Rows)
	}
	pat := make([]byte, 64)
	for i := range pat {
		pat[i] = byte('A' + i)
	}
	subject := append(append([]byte("xxA"), pat...), 'y')
	if pos, hw := a.Find(subject, pat); pos != 3 || !hw {
		t.Errorf("64-byte pattern: Find = %d hw=%v, want 3 true", pos, hw)
	}
	if pos, hw := a.Find(subject, subject[:65]); pos != 0 || hw {
		t.Errorf("65-byte pattern must bypass: Find = %d hw=%v", pos, hw)
	}
}

func TestFindPaperExample(t *testing.T) {
	// Fig. 10's worked example: string_find of "abc" in "babc".
	a := New(DefaultConfig())
	pos, hw := a.Find([]byte("babc"), []byte("abc"))
	if pos != 1 || !hw {
		t.Errorf("Find(babc, abc) = %d hw=%v, want 1 true", pos, hw)
	}
}

func TestFindCrossesBlockBoundary(t *testing.T) {
	// The wrap-around glue logic: a match spanning two 64-byte blocks.
	a := New(DefaultConfig())
	subject := append(bytes.Repeat([]byte("x"), 62), []byte("needle")...)
	pos, hw := a.Find(subject, []byte("needle"))
	if pos != 62 || !hw {
		t.Errorf("boundary Find = %d hw=%v, want 62 true", pos, hw)
	}
}

func TestFindLongPatternBypasses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows = 4
	a := New(cfg)
	pos, hw := a.Find([]byte("xxhello"), []byte("hello"))
	if pos != 2 || hw {
		t.Errorf("long pattern should fall back to software: %d %v", pos, hw)
	}
	if a.Stats().Bypasses != 1 {
		t.Errorf("bypass not counted")
	}
}

func TestFindEquivalenceProperty(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	f := func(subject []byte, pat []byte) bool {
		if len(pat) > 8 {
			pat = pat[:8]
		}
		if len(pat) == 0 {
			return true
		}
		got, _ := a.Find(subject, pat)
		return got == ref.Find(subject, pat)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// oracle is the cell-at-a-time model of the matrix that the bit-parallel
// datapath replaced: one bool per diagonal cell, one row loop per subject
// byte. It is kept as the reference for results and for the full Stats
// accounting (charge is called exactly where the hardware enters a block).
type oracle struct {
	cfg   Config
	stats Stats
}

func (o *oracle) charge(blockLen, nRows int) {
	o.stats.Blocks++
	o.stats.Bytes += int64(blockLen)
	o.stats.ActiveCells += int64(blockLen * nRows)
	o.stats.GatedCells += int64(blockLen * (o.cfg.Rows - nRows))
}

func (o *oracle) matchScan(subject, pattern []byte) int {
	m := len(pattern)
	diag := make([]bool, m) // diag[k]: k+1 leading pattern bytes matched so far
	for base := 0; base < len(subject); base += o.cfg.BlockBytes {
		end := base + o.cfg.BlockBytes
		if end > len(subject) {
			end = len(subject)
		}
		block := subject[base:end]
		o.charge(len(block), m)
		for i, c := range block {
			for k := m - 1; k >= 1; k-- {
				diag[k] = diag[k-1] && pattern[k] == c
			}
			diag[0] = pattern[0] == c
			if diag[m-1] {
				return base + i - m + 1
			}
		}
	}
	return -1
}

func (o *oracle) find(subject, pattern []byte) int {
	o.stats.Ops++
	return o.matchScan(subject, pattern)
}

func (o *oracle) replace(subject, old, new []byte) ([]byte, int) {
	o.stats.Ops++
	var out []byte
	count := 0
	for pos := 0; pos < len(subject); {
		rel := o.matchScan(subject[pos:], old)
		if rel < 0 {
			out = append(out, subject[pos:]...)
			break
		}
		out = append(out, subject[pos:pos+rel]...)
		out = append(out, new...)
		pos += rel + len(old)
		count++
	}
	return out, count
}

// apply is the per-byte loop behind Translate and the case conversions:
// one pass of nRows rows per block entered, every byte through sub.
func (o *oracle) apply(subject []byte, nRows int, sub func(c byte) byte) []byte {
	o.stats.Ops++
	out := make([]byte, len(subject))
	for base := 0; base < len(subject); base += o.cfg.BlockBytes {
		end := base + o.cfg.BlockBytes
		if end > len(subject) {
			end = len(subject)
		}
		o.charge(end-base, nRows)
		for i := base; i < end; i++ {
			out[i] = sub(subject[i])
		}
	}
	return out
}

// translate programs one equality row per pair, the last pair in the
// lowest row, and lets the first (lowest) row that fires substitute the
// byte — so the last of a repeated from byte wins, as in PHP's strtr.
func (o *oracle) translate(subject, from, to []byte) []byte {
	return o.apply(subject, max(len(from), 1), func(c byte) byte {
		for k := len(from) - 1; k >= 0; k-- {
			if from[k] == c {
				return to[k]
			}
		}
		return c
	})
}

func (o *oracle) trim(subject, cutset []byte) []byte {
	o.stats.Ops++
	inCut := func(c byte) bool { return bytes.IndexByte(cutset, c) >= 0 }
	lo, hi := 0, len(subject)
	edge := 0
	for lo < hi && inCut(subject[lo]) {
		lo++
		edge++
	}
	for hi > lo && inCut(subject[hi-1]) {
		hi--
		edge++
	}
	blocks := (edge+o.cfg.BlockBytes-1)/o.cfg.BlockBytes + 1
	for i := 0; i < blocks; i++ {
		n := edge
		if n > o.cfg.BlockBytes {
			n = o.cfg.BlockBytes
		}
		o.charge(n, max(len(cutset), 1))
		edge -= n
	}
	return subject[lo:hi]
}

// htmlSpecialChars and addSlashes are the per-byte switch-and-append
// loops that strlib's table-driven expansion kernel replaced, kept with
// the accounting exactly where the hardware does it: one charge per block
// entered, four equality rows, and no block at all for an empty subject.
func (o *oracle) htmlSpecialChars(subject []byte) []byte {
	o.stats.Ops++
	out := []byte{}
	for base := 0; base < len(subject); base += o.cfg.BlockBytes {
		end := base + o.cfg.BlockBytes
		if end > len(subject) {
			end = len(subject)
		}
		o.charge(end-base, 4)
		for i := base; i < end; i++ {
			switch subject[i] {
			case '&':
				out = append(out, "&amp;"...)
			case '<':
				out = append(out, "&lt;"...)
			case '>':
				out = append(out, "&gt;"...)
			case '"':
				out = append(out, "&quot;"...)
			default:
				out = append(out, subject[i])
			}
		}
	}
	return out
}

func (o *oracle) addSlashes(subject []byte) []byte {
	o.stats.Ops++
	out := []byte{}
	for base := 0; base < len(subject); base += o.cfg.BlockBytes {
		end := base + o.cfg.BlockBytes
		if end > len(subject) {
			end = len(subject)
		}
		o.charge(end-base, 4)
		for i := base; i < end; i++ {
			switch c := subject[i]; c {
			case '\'', '"', '\\':
				out = append(out, '\\', c)
			case 0:
				out = append(out, '\\', '0')
			default:
				out = append(out, c)
			}
		}
	}
	return out
}

// ablationWidths are the block widths of the paper's matrix-width figure.
var ablationWidths = []int{16, 32, 64, 128}

// boundaryLens are subject lengths on and around block boundaries.
var boundaryLens = []int{0, 1, 63, 64, 65, 127, 128, 129}

// pair builds an accelerator and its oracle with the same configuration.
func pair(rows, blockBytes int) (*Accel, *oracle) {
	a := New(Config{Rows: rows, InequalityRows: 6, BlockBytes: blockBytes})
	return a, &oracle{cfg: a.cfg}
}

// checkFind runs one Find on both models and compares the position, the
// software reference and the whole Stats struct; it returns the position.
func checkFind(t *testing.T, a *Accel, o *oracle, subject, pattern []byte) int {
	t.Helper()
	var ref strlib.Lib
	got, hw := a.Find(subject, pattern)
	want := o.find(subject, pattern)
	if !hw || got != want || got != ref.Find(subject, pattern) {
		t.Fatalf("B=%d Find(%q, %q) = %d hw=%v, oracle %d, strlib %d",
			a.cfg.BlockBytes, subject, pattern, got, hw, want, ref.Find(subject, pattern))
	}
	if a.Stats() != o.stats {
		t.Fatalf("B=%d Find(%q, %q) stats\n got  %+v\n want %+v",
			a.cfg.BlockBytes, subject, pattern, a.Stats(), o.stats)
	}
	if a.col != [256]uint64{} {
		t.Fatalf("column masks not cleared after Find(%q, %q)", subject, pattern)
	}
	return got
}

// TestFindAgainstOracle searches the space the closed-form block charge
// can get wrong instead of sampling it: every pattern length the matrix
// holds, subjects on and around block boundaries, a two-letter alphabet
// so partial and self-overlapping matches are the norm, and the pattern
// planted at the start, the end, ending on a boundary and straddling one
// — or absent.
func TestFindAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, bb := range ablationWidths {
		a, o := pair(64, bb)
		for m := 1; m <= 64; m++ {
			pattern := make([]byte, m)
			for i := range pattern {
				pattern[i] = "ab"[rng.Intn(2)]
			}
			for _, n := range boundaryLens {
				plants := []int{-1, 0, n - m, bb - m, bb - m/2 - 1, 2*bb - m, n - bb - 1}
				for _, at := range plants {
					subject := make([]byte, n)
					for i := range subject {
						subject[i] = "abc"[rng.Intn(3)]
					}
					if at >= 0 && at+m <= n {
						copy(subject[at:], pattern)
					}
					checkFind(t, a, o, subject, pattern)
				}
			}
		}
	}
}

func TestFindSelfOverlappingPatterns(t *testing.T) {
	for _, bb := range ablationWidths {
		a, o := pair(32, bb)
		for _, c := range []struct {
			subject, pattern string
			want             int
		}{
			{"aaab", "aab", 1},
			{"abaabab", "abab", 3},
			{"aaaa", "aaaaa", -1},
			{"ababababc", "ababc", 4},
			{strings.Repeat("a", 63) + "aab", "aab", 63},
			{strings.Repeat("ab", 40) + "b", "abb", 78},
			{"", "a", -1},
		} {
			if got := checkFind(t, a, o, []byte(c.subject), []byte(c.pattern)); got != c.want {
				t.Errorf("Find(%q, %q) = %d, want %d", c.subject, c.pattern, got, c.want)
			}
		}
	}
}

// TestReplaceAgainstOracle: Replace restarts block alignment after each
// occurrence, so adjacent and overlapping occurrences move every later
// block boundary — the Stats comparison pins that.
func TestReplaceAgainstOracle(t *testing.T) {
	var ref strlib.Lib
	check := func(a *Accel, o *oracle, subject, old, new []byte) {
		t.Helper()
		got, gotN, hw := a.Replace(subject, old, new)
		want, wantN := o.replace(subject, old, new)
		sw, swN := ref.Replace(subject, old, new)
		if !hw || gotN != wantN || gotN != swN || !bytes.Equal(got, want) || !bytes.Equal(got, sw) {
			t.Fatalf("B=%d Replace(%q, %q, %q) = %q n=%d hw=%v, oracle %q n=%d, strlib %q n=%d",
				a.cfg.BlockBytes, subject, old, new, got, gotN, hw, want, wantN, sw, swN)
		}
		if a.Stats() != o.stats {
			t.Fatalf("B=%d Replace(%q, %q, %q) stats\n got  %+v\n want %+v",
				a.cfg.BlockBytes, subject, old, new, a.Stats(), o.stats)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for _, bb := range ablationWidths {
		a, o := pair(32, bb)
		for _, c := range [][3]string{
			{"abab", "ab", "X"},                             // adjacent
			{"aaaa", "aa", "b"},                             // overlapping candidates: 2, not 3
			{"aaa", "aa", ""},                               // leftover tail
			{"aaaaa", "a", "aa"},                            // every byte
			{strings.Repeat("ab", 100), "ab", "ba"},         // adjacent across every boundary
			{strings.Repeat("a", 131), "aaa", "-"},          // overlapping, straddling boundaries
			{strings.Repeat("x", 62) + "<b><b>", "<b>", ""}, // first occurrence straddles 64
			{"", "a", "b"},
			{"no match here", "zz", "y"},
		} {
			check(a, o, []byte(c[0]), []byte(c[1]), []byte(c[2]))
		}
		for i := 0; i < 300; i++ {
			subject := make([]byte, boundaryLens[rng.Intn(len(boundaryLens))]+rng.Intn(3))
			for j := range subject {
				subject[j] = "ab"[rng.Intn(2)]
			}
			old := make([]byte, 1+rng.Intn(4))
			for j := range old {
				old[j] = "ab"[rng.Intn(2)]
			}
			check(a, o, subject, old, []byte("ZZ")[:rng.Intn(3)])
		}
	}
}

// allBytes is every byte value three times over, so a subject crosses
// several block boundaries at every ablation width.
var allBytes = func() []byte {
	b := make([]byte, 3*256)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

func checkOutput(t *testing.T, what string, a *Accel, o *oracle, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("B=%d %s = %q, oracle %q", a.cfg.BlockBytes, what, got, want)
	}
	if a.Stats() != o.stats {
		t.Fatalf("B=%d %s stats\n got  %+v\n want %+v", a.cfg.BlockBytes, what, a.Stats(), o.stats)
	}
	if a.col != [256]uint64{} {
		t.Fatalf("column masks not cleared after %s", what)
	}
}

func TestTranslateAgainstOracle(t *testing.T) {
	var ref strlib.Lib
	for _, bb := range ablationWidths {
		a, o := pair(32, bb)
		for _, c := range [][2]string{
			{"lo<>", "01[]"},
			{"aab", "xyz"}, // duplicate from byte: the last pair wins
			{"\x80\xff\x00a", "a\x00\xff\x80"},
			{"", ""},
			{"abcdefghijklmnopqrstuvwxyzABCDEF", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdef"},
		} {
			from, to := []byte(c[0]), []byte(c[1])
			for _, n := range append(boundaryLens, len(allBytes)) {
				subject := append([]byte(nil), allBytes[:n]...)
				if len(from) > 0 && n > 2 {
					subject[n/2] = from[0]
				}
				got, hw := a.Translate(subject, from, to)
				if !hw {
					t.Fatalf("Translate(%q) bypassed", from)
				}
				checkOutput(t, "Translate", a, o, got, o.translate(subject, from, to))
				if !bytes.Equal(got, ref.Translate(subject, from, to)) {
					t.Fatalf("Translate(%q -> %q) differs from strlib", from, to)
				}
			}
		}
	}
}

func TestTrimAgainstOracle(t *testing.T) {
	var ref strlib.Lib
	for _, bb := range ablationWidths {
		a, o := pair(32, bb)
		for _, cut := range []string{" \t\n\r\x00\x0b", "\x80\xff", "", "x", "  "} {
			for _, left := range []int{0, 1, bb - 1, bb, bb + 1, 2*bb + 1} {
				for _, right := range []int{0, 1, bb, 2 * bb} {
					for _, body := range []string{"", "b", "body with " + cut + " inside"} {
						pad := cut
						if pad == "" {
							pad = " "
						}
						in := []byte(strings.Repeat(pad[:1], left) + body + strings.Repeat(pad[len(pad)-1:], right))
						got := a.Trim(in, []byte(cut))
						checkOutput(t, "Trim", a, o, got, o.trim(in, []byte(cut)))
						if cut == string(cutset) && !bytes.Equal(got, ref.Trim(in)) {
							t.Fatalf("Trim(%q) = %q, strlib %q", in, got, ref.Trim(in))
						}
					}
				}
			}
		}
	}
}

// TestCaseAndHintChargesAgainstOracle pins the accounting of the two ops
// whose block loops now run through the shared substitute/chargeBlocks
// helpers: one pass per block, and one empty pass for an empty subject.
func TestCaseAndHintChargesAgainstOracle(t *testing.T) {
	for _, bb := range ablationWidths {
		for _, n := range boundaryLens {
			a, o := pair(32, bb)
			subject := allBytes[:n]
			o.apply(subject, 1, func(c byte) byte {
				if c >= 'a' && c <= 'z' {
					c -= 32
				}
				return c
			})
			o.apply(subject, 1, func(c byte) byte {
				if c >= 'A' && c <= 'Z' {
					c += 32
				}
				return c
			})
			o.stats.Ops++
			for rem := n; ; rem -= bb {
				o.charge(min(rem, bb), 6)
				if rem <= bb {
					break
				}
			}
			if n == 0 {
				o.charge(0, 1)
				o.charge(0, 1)
			}
			a.ToUpper(subject)
			a.ToLower(subject)
			a.HintVector(subject, 32)
			if a.Stats() != o.stats {
				t.Fatalf("B=%d n=%d stats\n got  %+v\n want %+v", bb, n, a.Stats(), o.stats)
			}
		}
	}
}

func TestCompareEquivalence(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	f := func(x, y []byte) bool {
		return a.Compare(x, y) == ref.Compare(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if a.Compare([]byte("same"), []byte("same")) != 0 {
		t.Errorf("equal strings should compare 0")
	}
}

func TestCaseConversionEquivalence(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	f := func(s []byte) bool {
		return string(a.ToUpper(s)) == string(ref.ToUpper(s)) &&
			string(a.ToLower(s)) == string(ref.ToLower(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslateEquivalence(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	from, to := []byte("lo<>"), []byte("01[]")
	f := func(s []byte) bool {
		got, hw := a.Translate(s, from, to)
		return hw && string(got) == string(ref.Translate(s, from, to))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslateWideTableBypasses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows = 2
	a := New(cfg)
	from := []byte("abcd")
	to := []byte("wxyz")
	got, hw := a.Translate([]byte("dcba"), from, to)
	if hw || string(got) != "zyxw" {
		t.Errorf("wide translate: %q hw=%v", got, hw)
	}
}

func TestTrimEquivalence(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	f := func(pad1, pad2 uint8, body string) bool {
		in := strings.Repeat(" ", int(pad1%20)) + body + strings.Repeat("\t", int(pad2%20))
		return string(a.Trim([]byte(in), cutset)) == string(ref.Trim([]byte(in)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReplaceEquivalence(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	f := func(s []byte, sel uint8) bool {
		old := [][]byte{[]byte("a"), []byte("ab"), []byte("<b>"), []byte("xy")}[sel%4]
		new := []byte("ZZ")
		got, gotN, hw := a.Replace(s, old, new)
		want, wantN := ref.Replace(s, old, new)
		return hw && gotN == wantN && string(got) == string(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHTMLSpecialCharsEquivalence(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	f := func(s []byte) bool {
		return string(a.HTMLSpecialChars(s)) == string(ref.HTMLSpecialChars(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checkEscape runs both escaping ops on both models and the software
// library and compares the bytes, the exact sizing and the whole Stats.
func checkEscape(t *testing.T, a *Accel, o *oracle, subject []byte) {
	t.Helper()
	var ref strlib.Lib
	for _, op := range []struct {
		name           string
		hw, model, lib func([]byte) []byte
	}{
		{"HTMLSpecialChars", a.HTMLSpecialChars, o.htmlSpecialChars, ref.HTMLSpecialChars},
		{"AddSlashes", a.AddSlashes, o.addSlashes, ref.AddSlashes},
	} {
		got, want := op.hw(subject), op.model(subject)
		if !bytes.Equal(got, want) || !bytes.Equal(op.lib(subject), want) {
			t.Fatalf("B=%d %s(%q) = %q, strlib %q, oracle %q",
				a.cfg.BlockBytes, op.name, subject, got, op.lib(subject), want)
		}
		if cap(got) != len(got) {
			t.Fatalf("B=%d %s(%q): result of %d bytes was sized %d", a.cfg.BlockBytes, op.name, subject, len(got), cap(got))
		}
		if a.Stats() != o.stats {
			t.Fatalf("B=%d %s(%q) stats\n got  %+v\n want %+v", a.cfg.BlockBytes, op.name, subject, a.Stats(), o.stats)
		}
	}
}

// TestEscapeAgainstOracle walks the shapes a run-copying kernel can get
// wrong, at every ablation width: no special byte (one run), nothing but
// special bytes (no run), a special byte first or last (an empty run at
// either end, the tail run), special bytes on both sides of every block
// boundary, bytes that are negative as int8, and NUL (a special byte for
// one op and an ordinary one for the other).
func TestEscapeAgainstOracle(t *testing.T) {
	specials := []byte("&<>\"'\\\x00")
	for _, width := range ablationWidths {
		for _, n := range boundaryLens {
			shapes := []func(i int) bool{ // is byte i a special one?
				func(i int) bool { return false },
				func(i int) bool { return true },
				func(i int) bool { return i == 0 },
				func(i int) bool { return i == n-1 },
				func(i int) bool { return i == 0 || i == n-1 },
				func(i int) bool { return i%width == 0 || i%width == width-1 },
			}
			for _, special := range shapes {
				// rot rotates which special byte lands where; the last
				// two rounds fill the gaps with high bytes and with NULs.
				for rot := 0; rot < len(specials)+2; rot++ {
					subject := make([]byte, n)
					for i := range subject {
						switch {
						case special(i):
							subject[i] = specials[(i+rot)%len(specials)]
						case rot == len(specials):
							subject[i] = byte(i*37) | 0x80
						case rot == len(specials)+1:
							subject[i] = 0
						default:
							subject[i] = 'a' + byte(i%26)
						}
					}
					a, o := pair(32, width)
					checkEscape(t, a, o, subject)
				}
			}
		}
	}
}

func TestHintVectorEquivalence(t *testing.T) {
	a := New(DefaultConfig())
	f := func(s []byte) bool {
		got := a.HintVector(s, 32)
		want := strlib.ClassScanRef(s, 32)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockAccounting(t *testing.T) {
	a := New(DefaultConfig())
	subject := bytes.Repeat([]byte("a"), 200) // 4 blocks of 64
	a.ToUpper(subject)
	st := a.Stats()
	if st.Blocks != 4 {
		t.Errorf("Blocks = %d, want 4", st.Blocks)
	}
	if st.Bytes != 200 {
		t.Errorf("Bytes = %d, want 200", st.Bytes)
	}
	if st.ActiveCells != 200 { // one active row
		t.Errorf("ActiveCells = %d, want 200", st.ActiveCells)
	}
	if st.GatedCells != int64(200*(a.cfg.Rows-1)) {
		t.Errorf("GatedCells = %d", st.GatedCells)
	}
}

func TestClockGatingReflectsPatternWidth(t *testing.T) {
	a := New(DefaultConfig())
	a.Find(bytes.Repeat([]byte("x"), 64), []byte("abcd"))
	st := a.Stats()
	if st.ActiveCells != 64*4 {
		t.Errorf("4-row pattern should activate 4 rows: %d", st.ActiveCells)
	}
}

func TestSaveLoadConfig(t *testing.T) {
	a := New(DefaultConfig())
	saved := a.SaveConfig()
	a.LoadConfig(saved)
	st := a.Stats()
	if st.ConfigSaves != 1 || st.ConfigLoads != 1 {
		t.Errorf("config ops not counted: %+v", st)
	}
}

func TestTranslatePanicsOnBadTables(t *testing.T) {
	a := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Errorf("mismatched tables should panic")
		}
	}()
	a.Translate([]byte("x"), []byte("ab"), []byte("a"))
}

func TestThroughputAdvantage(t *testing.T) {
	// The accelerator's whole point: blocks, not bytes. Streaming 64KB
	// must cost 1024 matrix passes, each standing for <=3 cycles, versus
	// 64K sequential character steps in prior single-byte designs.
	a := New(DefaultConfig())
	subject := bytes.Repeat([]byte("payload "), 8192)
	a.Find(subject, []byte("needle!"))
	st := a.Stats()
	if st.Blocks != int64(len(subject)/64) {
		t.Errorf("Blocks = %d, want %d", st.Blocks, len(subject)/64)
	}
}

func BenchmarkAccelFind64KB(b *testing.B) {
	a := New(DefaultConfig())
	subject := bytes.Repeat([]byte("the quick brown fox "), 3277)
	pattern := []byte("lazy dog")
	b.SetBytes(int64(len(subject)))
	for i := 0; i < b.N; i++ {
		a.Find(subject, pattern)
	}
}

func BenchmarkAccelHTMLEscape(b *testing.B) {
	a := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	subject := make([]byte, 4096)
	for i := range subject {
		subject[i] = byte('a' + rng.Intn(26))
		if rng.Intn(40) == 0 {
			subject[i] = '<'
		}
	}
	b.SetBytes(int64(len(subject)))
	for i := 0; i < b.N; i++ {
		a.HTMLSpecialChars(subject)
	}
}
