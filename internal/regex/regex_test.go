package regex

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

// mustCompile is Compile for the fixtures' statically known patterns.
func mustCompile(pattern string) *Regex {
	r, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return r
}

// find returns the leftmost-longest match [start, end) in input, or
// (-1, -1): the search FindAll repeats.
func (r *Regex) find(input []byte) (start, end int) {
	start, end, _ = r.findFrom(input, 0)
	return start, end
}

// match reports whether the pattern matches anywhere in input.
func (r *Regex) match(input []byte) bool {
	s, _ := r.find(input)
	return s >= 0
}

func mustFind(t *testing.T, pattern, input string) (int, int) {
	t.Helper()
	return mustCompile(pattern).find([]byte(input))
}

func TestLiteralMatch(t *testing.T) {
	cases := []struct {
		pattern, input string
		start, end     int
	}{
		{"abc", "babc", 1, 4},
		{"abc", "abc", 0, 3},
		{"abc", "ab", -1, -1},
		{"a", "", -1, -1},
		{"", "xyz", 0, 0},
	}
	for _, c := range cases {
		s, e := mustFind(t, c.pattern, c.input)
		if s != c.start || e != c.end {
			t.Errorf("Find(%q, %q) = (%d,%d), want (%d,%d)", c.pattern, c.input, s, e, c.start, c.end)
		}
	}
}

func TestQuantifiers(t *testing.T) {
	cases := []struct {
		pattern, input string
		start, end     int
	}{
		{"ab*c", "ac", 0, 2},
		{"ab*c", "abbbc", 0, 5},
		{"ab+c", "ac", -1, -1},
		{"ab+c", "abbc", 0, 4},
		{"ab?c", "abc", 0, 3},
		{"ab?c", "ac", 0, 2},
		{"ab?c", "abbc", -1, -1},
		{"a*", "aaa", 0, 3}, // leftmost-longest
	}
	for _, c := range cases {
		s, e := mustFind(t, c.pattern, c.input)
		if s != c.start || e != c.end {
			t.Errorf("Find(%q, %q) = (%d,%d), want (%d,%d)", c.pattern, c.input, s, e, c.start, c.end)
		}
	}
}

func TestAlternationAndGroups(t *testing.T) {
	cases := []struct {
		pattern, input string
		want           bool
	}{
		{"cat|dog", "hotdog", true},
		{"cat|dog", "catfish", true},
		{"cat|dog", "bird", false},
		{"(ab|cd)+", "abcdab", true},
		{"(?:ab|cd)e", "cde", true},
		{"x(y|z)w", "xzw", true},
		{"x(y|z)w", "xw", false},
	}
	for _, c := range cases {
		r := mustCompile(c.pattern)
		if got := r.match([]byte(c.input)); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestCharClasses(t *testing.T) {
	cases := []struct {
		pattern, input string
		want           bool
	}{
		{"[abc]", "zzbzz", true},
		{"[abc]", "zzz", false},
		{"[a-f]+", "deadbeef", true},
		{"[^a-z]", "abc!", true},
		{"[^a-z]", "abc", false},
		{`\d+`, "item42", true},
		{`\d+`, "item", false},
		{`\w+`, "__x9", true},
		{`\s`, "a b", true},
		{`\S+`, "   x", true},
		{`[\d-]`, "a-b", true}, // escape then literal dash
		{"[]a]", "]", true},    // ] first in class is a literal
		{`\.`, "a.b", true},    // escaped metachar
		{`\.`, "axb", false},
		{"a.c", "abc", true},   // dot
		{"a.c", "a\nc", false}, // dot excludes newline
	}
	for _, c := range cases {
		r := mustCompile(c.pattern)
		if got := r.match([]byte(c.input)); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestAnchors(t *testing.T) {
	cases := []struct {
		pattern, input string
		want           bool
	}{
		{"^abc", "abcdef", true},
		{"^abc", "xabc", false},
		{"xyz$", "wxyz", true},
		{"xyz$", "xyzw", false},
		{"^only$", "only", true},
		{"^only$", "only ", false},
	}
	for _, c := range cases {
		r := mustCompile(c.pattern)
		if got := r.match([]byte(c.input)); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestLookbehind(t *testing.T) {
	// Match a quote only when preceded by a word character, the Fig. 11
	// WordPress idiom.
	r := mustCompile(`(?<=\w)'`)
	s, e := r.find([]byte("don't"))
	if s != 3 || e != 4 {
		t.Errorf("lookbehind Find = (%d,%d), want (3,4)", s, e)
	}
	if r.match([]byte("'start")) {
		t.Errorf("lookbehind should reject quote at position 0")
	}
	if r.match([]byte(" 'x")) {
		t.Errorf("lookbehind should reject quote after space")
	}
	if r.lbLen != 1 {
		t.Errorf("LookbehindLen = %d, want 1", r.lbLen)
	}
}

func TestLookbehindVariableLengthRejected(t *testing.T) {
	if _, err := Compile(`(?<=a*)b`); err == nil {
		t.Errorf("variable-length lookbehind should fail to compile")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")x(", "[abc", "*a", "+", "?", "a**b(", "(?<=x", "[z-a]", "a^b", "a$b"}
	for _, p := range bad {
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%q) should fail", p)
		}
	}
}

func TestFindAll(t *testing.T) {
	r := mustCompile(`\d+`)
	ms := r.FindAll([]byte("a1b22c333"))
	want := []MatchRange{{1, 2}, {3, 5}, {6, 9}}
	if len(ms) != len(want) {
		t.Fatalf("FindAll = %v, want %v", ms, want)
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("match %d = %v, want %v", i, ms[i], want[i])
		}
	}
}

func TestFindAllEmptyMatches(t *testing.T) {
	r := mustCompile("x*")
	ms := r.FindAll([]byte("ab"))
	// Empty matches at every position must not loop forever.
	if len(ms) != 3 {
		t.Errorf("FindAll(x*, ab) = %v, want 3 empty matches", ms)
	}
}

func TestReplaceAll(t *testing.T) {
	r := mustCompile(`\s+`)
	out, n := r.ReplaceAll([]byte("a  b\t\tc"), []byte(" "))
	if string(out) != "a b c" || n != 2 {
		t.Errorf("ReplaceAll = %q, %d", out, n)
	}
	out, n = r.ReplaceAll([]byte("nochange"), []byte("-"))
	if string(out) != "nochange" || n != 0 {
		t.Errorf("no-match ReplaceAll = %q, %d", out, n)
	}
}

func TestReplaceAllHTMLishWorkload(t *testing.T) {
	// The paper's workloads wrap special characters in HTML entities.
	r := mustCompile(`<`)
	out, n := r.ReplaceAll([]byte(`a<b<c`), []byte("&lt;"))
	if string(out) != "a&lt;b&lt;c" || n != 2 {
		t.Errorf("ReplaceAll = %q, %d", out, n)
	}
}

func TestFSMRunAndStateJump(t *testing.T) {
	// Content reuse relies on running the FSM over a remembered prefix and
	// resuming from the stored state.
	r := mustCompile(`https://[a-z]+/\?author=[a-z]+`)
	d := r.FSM()
	prefix := []byte("https://localhost/?author=")
	st := d.Run(d.Start(), prefix)
	if st == Dead {
		t.Fatalf("prefix should keep the FSM alive")
	}
	// Resuming with the changed tail must reach acceptance.
	st2 := d.Run(st, []byte("xyz"))
	if !d.Accepting(st2) {
		t.Errorf("resumed run should accept")
	}
	// Equivalent to running the whole thing at once.
	whole := d.Run(d.Start(), append(append([]byte{}, prefix...), []byte("xyz")...))
	if st2 != whole {
		t.Errorf("resumed state %d != full-run state %d", st2, whole)
	}
}

func TestDFADeterminismProperty(t *testing.T) {
	// Running input i through Run must equal stepping byte by byte.
	r := mustCompile(`[a-c]+(x|y)?[0-9]`)
	d := r.FSM()
	f := func(input []byte) bool {
		st := d.Start()
		for _, b := range input {
			st = d.Step(st, b)
			if st == Dead {
				break
			}
		}
		return st == d.Run(d.Start(), input) ||
			(st == Dead && d.Run(d.Start(), input) == Dead)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func isRegularByte(c byte) bool {
	switch {
	case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		return true
	case c == '_' || c == '.' || c == ',' || c == '-' || c == ' ':
		return true
	}
	return false
}

func TestRequiresSpecial(t *testing.T) {
	cases := []struct {
		pattern string
		want    bool
	}{
		{`'`, true},        // apostrophe: special
		{`"[^"]*"`, true},  // quoted span
		{`<[a-z]+>`, true}, // HTML tag
		{`\n`, true},       // newline
		{`[a-z]+`, false},  // pure regular text can match
		{`cat|<`, false},   // one branch is all-regular
		{`a*`, false},      // matches empty
		{`&[a-z]+;`, true}, // entity
	}
	for _, c := range cases {
		r := mustCompile(c.pattern)
		if got := r.RequiresSpecial(isRegularByte); got != c.want {
			t.Errorf("RequiresSpecial(%q) = %v, want %v", c.pattern, got, c.want)
		}
	}
}

// TestAgainstStdlib cross-checks Find against Go's regexp on a random but
// stdlib-compatible pattern subset. Go's regexp is leftmost-first; for the
// alternation-free patterns generated here it agrees with our
// leftmost-longest semantics.
func TestAgainstStdlib(t *testing.T) {
	atoms := []string{"a", "b", "c", "[ab]", "[^c]", `\d`, "a*", "b+", "c?", "."}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			sb.WriteString(atoms[rng.Intn(len(atoms))])
		}
		pattern := sb.String()

		std, err := regexp.CompilePOSIX(pattern)
		if err != nil {
			continue
		}
		mine, err := Compile(pattern)
		if err != nil {
			t.Fatalf("Compile(%q): %v", pattern, err)
		}

		// Note: no newline in the alphabet — RE2 negated classes exclude
		// \n by default while our engine follows PCRE and includes it.
		inputBytes := make([]byte, rng.Intn(20))
		alphabet := "abc1 !"
		for i := range inputBytes {
			inputBytes[i] = alphabet[rng.Intn(len(alphabet))]
		}

		loc := std.FindIndex(inputBytes)
		s, e := mine.find(inputBytes)
		if loc == nil {
			if s != -1 {
				t.Errorf("pattern %q input %q: stdlib no match, ours (%d,%d)", pattern, inputBytes, s, e)
			}
			continue
		}
		if s != loc[0] || e != loc[1] {
			t.Errorf("pattern %q input %q: stdlib %v, ours (%d,%d)", pattern, inputBytes, loc, s, e)
		}
	}
}

type scanRec struct {
	scans    []int
	compiles []int
}

func (s *scanRec) OnScan(n int)    { s.scans = append(s.scans, n) }
func (s *scanRec) OnCompile(n int) { s.compiles = append(s.compiles, n) }

func TestObserverScanAccounting(t *testing.T) {
	obs := &scanRec{}
	r, err := CompileObserved("needle", obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.compiles) != 1 || obs.compiles[0] != r.NumStates() {
		t.Fatalf("compile event missing: %v", obs.compiles)
	}
	input := []byte(strings.Repeat("x", 1000) + "needle")
	if len(r.FindAll(input)) != 1 {
		t.Fatalf("should match")
	}
	if len(obs.scans) != 1 {
		t.Fatalf("scan events = %v", obs.scans)
	}
	// Character-at-a-time model: every byte up to the match is charged.
	if obs.scans[0] < 1000 || obs.scans[0] > len(input) {
		t.Errorf("scan cost %d out of range (input %d)", obs.scans[0], len(input))
	}
}

func TestPatternAccessors(t *testing.T) {
	r := mustCompile("^ab")
	if !r.Anchored() || r.matchesEmpty {
		t.Errorf("accessors wrong: %v %v", r.Anchored(), r.matchesEmpty)
	}
	if r.NumStates() < 2 {
		t.Errorf("NumStates = %d", r.NumStates())
	}
}

func TestAnchoredFindFrom(t *testing.T) {
	r := mustCompile("^ab")
	if s, _, _ := r.findFrom([]byte("xxab"), 2); s != -1 {
		t.Errorf("anchored pattern must not match at offset 2")
	}
	if s, _, _ := r.findFrom([]byte("abxx"), 0); s != 0 {
		t.Errorf("anchored pattern should match at 0")
	}
}

func BenchmarkFindLiteral(b *testing.B) {
	r := mustCompile("quick brown")
	input := []byte(strings.Repeat("the lazy dog sat. ", 100) + "the quick brown fox")
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		r.find(input)
	}
}

func BenchmarkFindClass(b *testing.B) {
	r := mustCompile(`<[a-z]+ href="[^"]*">`)
	input := []byte(strings.Repeat(`some text <a href="https://example.com/page">link</a> `, 40))
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		r.FindAll(input)
	}
}

func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustCompile(`<(a|img|div)[^>]*>|&[a-z]+;|\d+`)
	}
}
