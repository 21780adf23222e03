package regex

import (
	"regexp"
	"strings"
	"testing"
)

func TestBoundedRepetition(t *testing.T) {
	cases := []struct {
		pattern, input string
		want           bool
	}{
		{"a{3}", "aaa", true},
		{"a{3}", "aa", false},
		{"^a{3}$", "aaaa", false},
		{"a{2,4}", "aa", true},
		{"^a{2,4}$", "aaaaa", false},
		{"a{0,2}b", "b", true},
		{"a{2,}", "aaaaaa", true},
		{"^a{2,}$", "a", false},
		{"(ab){2}", "abab", true},
		{"(ab){2}", "abxab", false},
		{`\d{4}-\d{2}`, "2017-06", true},
		{`\d{4}-\d{2}`, "201-06", false},
		{"[a-c]{2,3}x", "abx", true},
	}
	for _, c := range cases {
		r := mustCompile(c.pattern)
		if got := r.match([]byte(c.input)); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestBoundedLeftmostLongest(t *testing.T) {
	r := mustCompile("a{2,4}")
	s, e := r.find([]byte("aaaaa"))
	if s != 0 || e != 4 {
		t.Errorf("Find = (%d,%d), want (0,4) leftmost-longest", s, e)
	}
}

func TestLiteralBraceNotAQuantifier(t *testing.T) {
	// PCRE treats a brace that doesn't form a quantifier as a literal.
	cases := []struct {
		pattern, input string
		want           bool
	}{
		{"a{", "a{", true},
		{"a{x}", "a{x}", true},
		{"a{,3}", "a{,3}", true}, // {,n} is not a PCRE quantifier
		{"{3}", "{3}", true},     // nothing to repeat: literal
	}
	for _, c := range cases {
		r, err := Compile(c.pattern)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.pattern, err)
			continue
		}
		if got := r.match([]byte(c.input)); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestBoundedRepetitionErrors(t *testing.T) {
	if _, err := Compile("a{4,2}"); err == nil {
		t.Errorf("inverted bounds should fail")
	}
	if _, err := Compile("a{9999}"); err == nil {
		t.Errorf("huge repetition should fail")
	}
}

func TestBoundedAgainstStdlib(t *testing.T) {
	patterns := []string{"a{2}", "a{1,3}b", "(ab){2,}", "x{0,2}y", `\d{2,3}`}
	inputs := []string{"", "a", "aa", "aaa", "aaab", "ab", "abab", "ababab", "xy", "xxy", "xxxy", "12", "123", "1234"}
	for _, p := range patterns {
		std := regexp.MustCompile("^(?:" + p + ")$")
		mine := mustCompile("^" + p + "$")
		for _, in := range inputs {
			want := std.MatchString(in)
			got := mine.match([]byte(in))
			if got != want {
				t.Errorf("pattern %q input %q: got %v, stdlib %v", p, in, got, want)
			}
		}
	}
}

func TestWikitextStylePattern(t *testing.T) {
	// A MediaWiki-flavored pattern exercising bounds: heading markers.
	r := mustCompile("={2,6}[a-z ]+={2,6}")
	in := []byte("intro ==section one== body ======deep====== tail")
	ms := r.FindAll(in)
	if len(ms) != 2 {
		t.Fatalf("FindAll = %v", ms)
	}
	if string(in[ms[0].Start:ms[0].End]) != "==section one==" {
		t.Errorf("first match = %q", in[ms[0].Start:ms[0].End])
	}
}

func TestBoundedFixedLenLookbehind(t *testing.T) {
	// {n} inside a lookbehind keeps a fixed length.
	r := mustCompile(`(?<=[a-z]{2})'`)
	if !r.match([]byte("ab'")) {
		t.Errorf("lookbehind with {2} should match after two letters")
	}
	if r.match([]byte("a'")) {
		t.Errorf("only one preceding letter: no match")
	}
	if r.lbLen != 2 {
		t.Errorf("LookbehindLen = %d, want 2", r.lbLen)
	}
}

func TestBoundedRepetitionStress(t *testing.T) {
	// Large-but-legal expansion compiles and matches.
	r := mustCompile("^a{200}$")
	if !r.match([]byte(strings.Repeat("a", 200))) {
		t.Errorf("a{200} should match 200 a's")
	}
	if r.match([]byte(strings.Repeat("a", 199))) {
		t.Errorf("a{200} must not match 199 a's")
	}
}
