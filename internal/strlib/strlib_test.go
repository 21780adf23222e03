package strlib

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

type recObs struct {
	ops   []Op
	bytes []int
}

func (r *recObs) OnStringOp(op Op, n int) {
	r.ops = append(r.ops, op)
	r.bytes = append(r.bytes, n)
}

func TestOpNames(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if op.String() == "unknown" || op.String() == "" {
			t.Errorf("op %d has no name", op)
		}
	}
	if Op(200).String() != "unknown" {
		t.Errorf("out-of-range op should be unknown")
	}
}

func TestFind(t *testing.T) {
	var l Lib
	cases := []struct {
		subject, pattern string
		want             int
	}{
		{"babc", "abc", 1},
		{"hello world", "world", 6},
		{"hello", "hello", 0},
		{"hello", "", 0},
		{"hello", "x", -1},
		{"hi", "hello", -1},
		{"aaab", "aab", 1},
		{"", "", 0},
		{"", "a", -1},
	}
	for _, c := range cases {
		if got := l.Find([]byte(c.subject), []byte(c.pattern)); got != c.want {
			t.Errorf("Find(%q, %q) = %d, want %d", c.subject, c.pattern, got, c.want)
		}
	}
}

func TestFindMatchesStdlib(t *testing.T) {
	var l Lib
	f := func(s, p string) bool {
		if len(p) > 8 {
			p = p[:8]
		}
		return l.Find([]byte(s), []byte(p)) == strings.Index(s, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReplace(t *testing.T) {
	var l Lib
	got, n := l.Replace([]byte("a-b-c"), []byte("-"), []byte("+"))
	if string(got) != "a+b+c" || n != 2 {
		t.Errorf("Replace = %q, %d", got, n)
	}
	got, n = l.Replace([]byte("aaaa"), []byte("aa"), []byte("b"))
	if string(got) != "bb" || n != 2 {
		t.Errorf("non-overlapping Replace = %q, %d", got, n)
	}
	got, n = l.Replace([]byte("xyz"), []byte(""), []byte("!"))
	if string(got) != "xyz" || n != 0 {
		t.Errorf("empty-pattern Replace = %q, %d", got, n)
	}
	got, n = l.Replace([]byte("<b>"), []byte("<b>"), []byte("<strong>"))
	if string(got) != "<strong>" || n != 1 {
		t.Errorf("whole-string Replace = %q, %d", got, n)
	}
}

func TestReplaceMatchesStdlib(t *testing.T) {
	var l Lib
	f := func(s string, oldRaw, newRaw uint8) bool {
		old := string(rune('a' + oldRaw%3))
		new := string(rune('x' + newRaw%3))
		got, _ := l.Replace([]byte(s), []byte(old), []byte(new))
		return string(got) == strings.ReplaceAll(s, old, new)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	var l Lib
	f := func(a, b string) bool {
		return l.Compare([]byte(a), []byte(b)) == strings.Compare(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrim(t *testing.T) {
	var l Lib
	cases := map[string]string{
		"  hello  ":      "hello",
		"\t\n x \r\x00":  "x",
		"no-trim":        "no-trim",
		"":               "",
		"   ":            "",
		" inner  space ": "inner  space",
	}
	for in, want := range cases {
		if got := string(l.Trim([]byte(in))); got != want {
			t.Errorf("Trim(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCaseConversion(t *testing.T) {
	var l Lib
	f := func(s string) bool {
		// Restrict to ASCII to match PHP semantics.
		bs := []byte(s)
		for i := range bs {
			bs[i] &= 0x7f
		}
		up := string(l.ToUpper(bs))
		down := string(l.ToLower(bs))
		return up == strings.ToUpper(string(bs)) && down == strings.ToLower(string(bs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCaseConversionDoesNotAliasInput(t *testing.T) {
	var l Lib
	in := []byte("abc")
	out := l.ToUpper(in)
	out[0] = 'z'
	if in[0] != 'a' {
		t.Errorf("ToUpper aliased its input")
	}
}

func TestTranslate(t *testing.T) {
	var l Lib
	got := l.Translate([]byte("hello world"), []byte("lo"), []byte("01"))
	if string(got) != "he001 w1r0d" {
		t.Errorf("Translate = %q", got)
	}
	if string(l.Translate([]byte("abc"), nil, nil)) != "abc" {
		t.Errorf("empty-table Translate should copy")
	}
}

func TestTranslatePanicsOnLengthMismatch(t *testing.T) {
	var l Lib
	defer func() {
		if recover() == nil {
			t.Errorf("mismatched tables should panic")
		}
	}()
	l.Translate([]byte("x"), []byte("ab"), []byte("a"))
}

func TestHTMLSpecialChars(t *testing.T) {
	var l Lib
	got := l.HTMLSpecialChars([]byte(`<a href="x">&y</a>`))
	want := "&lt;a href=&quot;x&quot;&gt;&amp;y&lt;/a&gt;"
	if string(got) != want {
		t.Errorf("HTMLSpecialChars = %q, want %q", got, want)
	}
	if string(l.HTMLSpecialChars([]byte("plain"))) != "plain" {
		t.Errorf("plain text should pass through")
	}
}

func TestAddSlashes(t *testing.T) {
	var l Lib
	got := l.AddSlashes([]byte(`It's a "test" \ ` + "\x00"))
	want := `It\'s a \"test\" \\ ` + `\0`
	if string(got) != want {
		t.Errorf("AddSlashes = %q, want %q", got, want)
	}
}

// htmlSpecialCharsRef and addSlashesRef are the per-byte switch-and-
// append loops Expand's table-driven kernel replaced, kept as its oracle.
func htmlSpecialCharsRef(subject []byte) []byte {
	out := []byte{}
	for _, c := range subject {
		switch c {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, c)
		}
	}
	return out
}

func addSlashesRef(subject []byte) []byte {
	out := []byte{}
	for _, c := range subject {
		switch c {
		case '\'', '"', '\\':
			out = append(out, '\\', c)
		case 0:
			out = append(out, '\\', '0')
		default:
			out = append(out, c)
		}
	}
	return out
}

// sizedMem is an Allocator that records what was asked of it.
type sizedMem struct{ bufs []int }

func (m *sizedMem) Make(n int) []byte { return make([]byte, n) }
func (m *sizedMem) Buf(c int) []byte {
	m.bufs = append(m.bufs, c)
	return make([]byte, 0, c)
}

// TestEscapesMatchPerByteLoops compares both escaping ops with the loops
// they replaced over every byte value in every neighbourhood — each byte
// alone, doubled, at either end of a run and between two runs — and
// checks the result came from one allocator request of exactly its size
// and that the observer saw one event of the subject's length.
func TestEscapesMatchPerByteLoops(t *testing.T) {
	var subjects [][]byte
	for c := 0; c < 256; c++ {
		b := byte(c)
		subjects = append(subjects, []byte{b}, []byte{b, b}, []byte{b, 'x', 'y'}, []byte{'x', 'y', b},
			[]byte{'x', b, 'y', b, b, 'z'}, append(bytes.Repeat([]byte{'r'}, 70), b, 'r'))
	}
	subjects = append(subjects, nil, []byte{}, []byte("plain words only"),
		[]byte(`<a href="x">R&D</a> it's a \ path`+"\x00 end"))
	for _, subject := range subjects {
		obs, mem := &recObs{}, &sizedMem{}
		l := Lib{Obs: obs, Mem: mem}
		for _, op := range []struct {
			op       Op
			lib, ref func([]byte) []byte
		}{{OpHTMLSpecial, l.HTMLSpecialChars, htmlSpecialCharsRef}, {OpAddSlashes, l.AddSlashes, addSlashesRef}} {
			*obs, *mem = recObs{}, sizedMem{}
			got := op.lib(subject)
			if want := op.ref(subject); !bytes.Equal(got, want) {
				t.Fatalf("%v(%q) = %q, per-byte loop %q", op.op, subject, got, want)
			}
			if len(mem.bufs) != 1 || mem.bufs[0] != len(got) {
				t.Fatalf("%v(%q): allocator asked for %v, result is %d bytes", op.op, subject, mem.bufs, len(got))
			}
			if len(obs.ops) != 1 || obs.ops[0] != op.op || obs.bytes[0] != len(subject) {
				t.Fatalf("%v(%q): observer saw %v %v", op.op, subject, obs.ops, obs.bytes)
			}
		}
	}
}

func TestNL2BR(t *testing.T) {
	var l Lib
	cases := map[string]string{
		"a\nb":   "a<br />\nb",
		"a\r\nb": "a<br />\r\nb",
		"a\rb":   "a<br />\rb",
		"ab":     "ab",
		"\n":     "<br />\n",
	}
	for in, want := range cases {
		if got := string(l.NL2BR([]byte(in))); got != want {
			t.Errorf("NL2BR(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConcat(t *testing.T) {
	var l Lib
	got := l.Concat([]byte("a"), []byte("bc"), nil, []byte("d"))
	if string(got) != "abcd" {
		t.Errorf("Concat = %q", got)
	}
}

func TestIsRegular(t *testing.T) {
	for _, c := range []byte("AZaz09_.,- ") {
		if !IsRegular(c) {
			t.Errorf("%q should be regular", c)
		}
	}
	for _, c := range []byte("'\"<>&\n!()[]{}/\\") {
		if IsRegular(c) {
			t.Errorf("%q should be special", c)
		}
	}
}

func TestClassScan(t *testing.T) {
	// 3 segments of 4 bytes: "abcd" regular, "e'fg" special, "hi" regular.
	hv := ClassScanRef([]byte("abcde'fghi"), 4)
	if len(hv) != 1 {
		t.Fatalf("hv length %d", len(hv))
	}
	if hv[0] != 0b010 {
		t.Errorf("hv = %b, want 010", hv[0])
	}
}

func TestClassScanAllRegular(t *testing.T) {
	hv := ClassScanRef(bytes.Repeat([]byte("a"), 1000), 32)
	for _, w := range hv {
		if w != 0 {
			t.Errorf("all-regular content must produce an empty HV")
		}
	}
}

func TestClassScanDefaultSegSize(t *testing.T) {
	hv := ClassScanRef([]byte("<"), 0) // segSize <= 0 falls back to 32
	if len(hv) != 1 || hv[0] != 1 {
		t.Errorf("default segment scan wrong: %v", hv)
	}
}

func TestClassScanSegmentBoundaries(t *testing.T) {
	// Special char as the last byte of segment 0 and first byte of segment 1.
	in := make([]byte, 64)
	for i := range in {
		in[i] = 'a'
	}
	in[31] = '<'
	hv := ClassScanRef(in, 32)
	if hv[0] != 0b01 {
		t.Errorf("special at end of seg0: hv = %b", hv[0])
	}
	in[31] = 'a'
	in[32] = '<'
	hv = ClassScanRef(in, 32)
	if hv[0] != 0b10 {
		t.Errorf("special at start of seg1: hv = %b", hv[0])
	}
}

func TestObserverSeesEveryCall(t *testing.T) {
	obs := &recObs{}
	l := Lib{Obs: obs}
	l.Find([]byte("abcdef"), []byte("c"))
	l.Trim([]byte(" x "))
	l.Concat([]byte("ab"), []byte("cd"))
	if len(obs.ops) != 3 {
		t.Fatalf("observer saw %d ops, want 3", len(obs.ops))
	}
	if obs.ops[0] != OpFind || obs.bytes[0] != 6 {
		t.Errorf("find event wrong: %v %v", obs.ops[0], obs.bytes[0])
	}
	if obs.ops[2] != OpConcat || obs.bytes[2] != 4 {
		t.Errorf("concat event wrong: %v %v", obs.ops[2], obs.bytes[2])
	}
}

// findRef is the naive O(n·m) reference scan find is checked against,
// and the benchmark baseline.
func findRef(subject, pattern []byte) int {
	if len(pattern) == 0 {
		return 0
	}
	if len(pattern) > len(subject) {
		return -1
	}
	first := pattern[0]
	for i := 0; i+len(pattern) <= len(subject); i++ {
		if subject[i] != first {
			continue
		}
		j := 1
		for ; j < len(pattern); j++ {
			if subject[i+j] != pattern[j] {
				break
			}
		}
		if j == len(pattern) {
			return i
		}
	}
	return -1
}

// TestFindMatchesNaiveReference checks the bytes.Index-backed find against
// the naive reference scan on random inputs.
func TestFindMatchesNaiveReference(t *testing.T) {
	f := func(subject []byte, pattern []byte) bool {
		if len(pattern) > 4 {
			pattern = pattern[:4] // keep match probability meaningful
		}
		return find(subject, pattern) == findRef(subject, pattern)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFind1KB(b *testing.B) {
	var l Lib
	subject := bytes.Repeat([]byte("the quick brown fox "), 51)
	pattern := []byte("fox jumps")
	b.SetBytes(int64(len(subject)))
	for i := 0; i < b.N; i++ {
		l.Find(subject, pattern)
	}
}

// BenchmarkFindNaive1KB is the pre-optimization baseline for
// BenchmarkFind1KB: the naive O(n·m) scan over the same input.
func BenchmarkFindNaive1KB(b *testing.B) {
	subject := bytes.Repeat([]byte("the quick brown fox "), 51)
	pattern := []byte("fox jumps")
	b.SetBytes(int64(len(subject)))
	for i := 0; i < b.N; i++ {
		findRef(subject, pattern)
	}
}

func BenchmarkHTMLSpecialChars(b *testing.B) {
	var l Lib
	subject := bytes.Repeat([]byte(`plain text with <tags> & "quotes" `), 30)
	b.SetBytes(int64(len(subject)))
	for i := 0; i < b.N; i++ {
		l.HTMLSpecialChars(subject)
	}
}
