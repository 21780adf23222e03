package regexaccel

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/regex"
	"repro/internal/strlib"
)

// mustCompile is regex.Compile for the fixtures' statically known
// patterns.
func mustCompile(pattern string) *regex.Regex {
	re, err := regex.Compile(pattern)
	if err != nil {
		panic(err)
	}
	return re
}

// genContent builds HTML-ish content: mostly regular characters with
// occasional special characters, the texture the paper's workloads see.
func genContent(rng *rand.Rand, n int) []byte {
	specials := []byte(`'"<>&\n();!`)
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(20) == 0 {
			out[i] = specials[rng.Intn(len(specials))]
		} else {
			out[i] = byte('a' + rng.Intn(26))
		}
	}
	return out
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.ReuseEntries != 32 || c.MaxReuseContent != 32 {
		t.Errorf("paper: 32-entry reuse table, 32-byte content field: %+v", c)
	}
}

func TestMaxRegularPrefix(t *testing.T) {
	cases := []struct {
		pattern string
		want    int
	}{
		{`'`, 0},        // starts with a special
		{`<[a-z]+>`, 0}, // starts with '<'
		{`[a-z]'`, 1},   // one regular char then the special
		{`ab<`, 2},      // two regular chars
		{`a?b?<`, 2},    // optional regulars: still bounded
		{`\w+'`, -1},    // unbounded regular run before the quote
		{`[a-z]*<`, -1}, // unbounded
	}
	for _, c := range cases {
		re := mustCompile(c.pattern)
		got := maxRegularPrefix(re.FSM(), strlib.IsRegular)
		if got != c.want {
			t.Errorf("maxRegularPrefix(%q) = %d, want %d", c.pattern, got, c.want)
		}
	}
}

func TestSiftable(t *testing.T) {
	a := New(DefaultConfig())
	cases := []struct {
		pattern string
		want    bool
	}{
		{`'`, true},
		{`<[a-z]+>`, true},
		{`[a-z]+`, false}, // no special required
		{`\w+'`, false},   // unbounded prefix
		{`"`, true},
	}
	for _, c := range cases {
		re := mustCompile(c.pattern)
		if got := a.Siftable(re); got != c.want {
			t.Errorf("Siftable(%q) = %v, want %v", c.pattern, got, c.want)
		}
	}
}

func TestSieveProducesReferenceHV(t *testing.T) {
	a := New(DefaultConfig())
	re := mustCompile(`'`)
	content := []byte("abcd'efgh" + strings.Repeat("x", 100))
	ms, hv := a.Sieve(re, content, nil)
	if len(ms) != 1 || ms[0].Start != 4 {
		t.Fatalf("sieve matches wrong: %v", ms)
	}
	want := strlib.ClassScanRef(content, a.cfg.SegSize)
	for i := range want {
		if hv.bits[i] != want[i] {
			t.Errorf("HV word %d = %b, want %b", i, hv.bits[i], want[i])
		}
	}
	if !hv.Covers(len(content)) {
		t.Errorf("HV should cover the content")
	}
}

func TestShadowSkipsCleanContent(t *testing.T) {
	a := New(DefaultConfig())
	sieve := mustCompile(`'`)
	shadow := mustCompile(`"`)
	// 4KB of purely regular content: every segment clean.
	content := bytes.Repeat([]byte("cleantext "), 410)
	_, hv := a.Sieve(sieve, content, nil)
	ms, examined := a.Shadow(shadow, content, hv)
	if len(ms) != 0 {
		t.Fatalf("no quotes in content: %v", ms)
	}
	if examined != 0 {
		t.Errorf("clean content should be skipped entirely, examined %d", examined)
	}
	if a.Stats().BytesSkippedSift != int64(len(content)) {
		t.Errorf("BytesSkippedSift = %d, want %d", a.Stats().BytesSkippedSift, len(content))
	}
}

func TestShadowFindsMatchesNearFlags(t *testing.T) {
	a := New(DefaultConfig())
	sieve := mustCompile(`'`)
	shadow := mustCompile(`"[a-z]*"`)
	content := append(bytes.Repeat([]byte("r"), 200), []byte(`"quoted"`)...)
	content = append(content, bytes.Repeat([]byte("r"), 200)...)
	_, hv := a.Sieve(sieve, content, nil)
	ms, examined := a.Shadow(shadow, content, hv)
	if len(ms) != 1 || ms[0].Start != 200 || ms[0].End != 208 {
		t.Fatalf("shadow matches = %v", ms)
	}
	// The quoted span sits in one flagged segment; the candidate windows
	// around it are far smaller than the content.
	full, fullScanned := a.fullScan(nil, shadow, content)
	if len(full) != 1 {
		t.Fatalf("full scan matches = %v", full)
	}
	if examined >= fullScanned {
		t.Errorf("shadow examined %d, full scan %d; sifting should win", examined, fullScanned)
	}
}

func TestShadowEquivalenceProperty(t *testing.T) {
	a := New(DefaultConfig())
	patterns := []*regex.Regex{
		mustCompile(`'`),
		mustCompile(`"[a-z]*"`),
		mustCompile(`<[a-z]+>`),
		mustCompile(`&`),
		mustCompile(`[a-z]'`),
		mustCompile(`[a-z]+`), // non-siftable: full scan path
	}
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		content := genContent(rng, int(size%2000))
		sieve := mustCompile(`<`)
		_, hv := a.Sieve(sieve, content, nil)
		for _, re := range patterns {
			got, _ := a.Shadow(re, content, hv)
			want := re.FindAll(content)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestShadowWithoutHVFallsBack(t *testing.T) {
	a := New(DefaultConfig())
	re := mustCompile(`'`)
	content := []byte("it's")
	ms, examined := a.Shadow(re, content, nil)
	if len(ms) != 1 || examined <= 0 {
		t.Errorf("no-HV shadow should scan fully: %v %d", ms, examined)
	}
	if a.Stats().NonSiftable != 1 {
		t.Errorf("NonSiftable = %d", a.Stats().NonSiftable)
	}
}

func TestShadowStaleHVRejected(t *testing.T) {
	a := New(DefaultConfig())
	sieve := mustCompile(`<`)
	content := []byte(strings.Repeat("x", 100))
	_, hv := a.Sieve(sieve, content, nil)
	// Content changed length: the HV no longer covers it.
	longer := append(content, []byte("'")...)
	ms, _ := a.Shadow(mustCompile(`'`), longer, hv)
	if len(ms) != 1 {
		t.Errorf("stale HV must not hide matches: %v", ms)
	}
}

func TestScanWithReusePaperScenario(t *testing.T) {
	// Fig. 13: scanning author URLs where only the name field changes.
	a := New(DefaultConfig())
	re := mustCompile(`https://[a-z]+/\?author=[a-z]+`)
	const pc, asid = 0x401000, 7

	u1 := []byte("https://localhost/?author=abc")
	end, res := a.ScanWithReuse(re, pc, asid, u1)
	if !res.InvalidMiss || end != len(u1) {
		t.Fatalf("first scan: %+v end=%d", res, end)
	}
	u2 := []byte("https://localhost/?author=xyz")
	end, res = a.ScanWithReuse(re, pc, asid, u2)
	if !res.Resized || end != len(u2) {
		t.Fatalf("second scan should resize: %+v end=%d", res, end)
	}
	u3 := []byte("https://localhost/?author=qrs")
	end, res = a.ScanWithReuse(re, pc, asid, u3)
	if !res.Hit || end != len(u3) {
		t.Fatalf("third scan should hit: %+v end=%d", res, end)
	}
	if res.Skipped != 26 {
		t.Errorf("skipped %d bytes, want 26 (the paper's stored size)", res.Skipped)
	}
}

func TestScanWithReuseFirstByteMismatch(t *testing.T) {
	a := New(DefaultConfig())
	re := mustCompile(`[a-z]+`)
	a.ScanWithReuse(re, 1, 1, []byte("aaaa"))
	_, res := a.ScanWithReuse(re, 1, 1, []byte("zzzz"))
	if !res.InvalidMiss {
		t.Errorf("first-byte mismatch should be an invalid miss: %+v", res)
	}
}

func TestScanWithReuseEquivalenceProperty(t *testing.T) {
	// Whatever the table state, the accepted-prefix end must equal a
	// direct anchored traversal.
	re := mustCompile(`https://[a-z]+/\?[a-z]+=[a-z0-9]+`)
	ref := func(content []byte) int {
		d := re.FSM()
		best := -1
		st := d.Start()
		if d.Accepting(st) {
			best = 0
		}
		for i, b := range content {
			st = d.Step(st, b)
			if st == regex.Dead {
				break
			}
			if d.Accepting(st) {
				best = i + 1
			}
		}
		return best
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(DefaultConfig())
		hosts := []string{"localhost", "example", "wiki"}
		keys := []string{"author", "page", "id"}
		for step := 0; step < 200; step++ {
			u := fmt.Sprintf("https://%s/?%s=%s%d",
				hosts[rng.Intn(3)], keys[rng.Intn(3)],
				string(rune('a'+rng.Intn(26))), rng.Intn(100))
			content := []byte(u)
			pc := uint64(rng.Intn(3))
			end, _ := a.ScanWithReuse(re, pc, 1, content)
			if end != ref(content) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestReuseTableLRUEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReuseEntries = 4
	a := New(cfg)
	re := mustCompile(`[a-z]+`)
	// Fill the table with 4 PCs, then a 5th evicts the LRU (pc=1).
	for pc := uint64(1); pc <= 5; pc++ {
		a.ScanWithReuse(re, pc, 1, []byte("abc"))
	}
	// PC 5 must be resident now: scanning again with same content resizes
	// or hits rather than invalid-missing.
	_, res := a.ScanWithReuse(re, 5, 1, []byte("abc"))
	if res.InvalidMiss {
		t.Errorf("recently installed entry was evicted: %+v", res)
	}
	_, res = a.ScanWithReuse(re, 1, 1, []byte("abc"))
	if !res.InvalidMiss {
		t.Errorf("LRU entry should have been evicted: %+v", res)
	}
}

func TestReuseASIDIsolation(t *testing.T) {
	a := New(DefaultConfig())
	re := mustCompile(`[a-z]+`)
	a.ScanWithReuse(re, 1, 100, []byte("abc"))
	_, res := a.ScanWithReuse(re, 1, 200, []byte("abc"))
	if !res.InvalidMiss {
		t.Errorf("different ASID must not hit: %+v", res)
	}
}

func TestShadowReplaceKeepsTextModuloPadding(t *testing.T) {
	a := New(DefaultConfig())
	sieve := mustCompile(`<`)
	re := mustCompile(`'`)
	content := []byte("it's a test with 'quotes' spread " + strings.Repeat("padding ", 20) + "and more'")
	_, hv := a.Sieve(sieve, content, nil)

	got, newHV, n, _ := a.ShadowReplace(re, content, []byte("&#039;"), hv)
	want, wantN := re.ReplaceAll(content, []byte("&#039;"))
	if n != wantN {
		t.Fatalf("replacement count %d, want %d", n, wantN)
	}
	// Identical after stripping the alignment padding.
	if strings.ReplaceAll(string(got), " ", "") != strings.ReplaceAll(string(want), " ", "") {
		t.Errorf("text mismatch:\n got %q\nwant %q", got, want)
	}
	// The updated HV must be exactly the reference HV of the new content.
	ref := strlib.ClassScanRef(got, a.cfg.SegSize)
	if !newHV.Covers(len(got)) {
		t.Fatalf("new HV does not cover new content")
	}
	for i := range ref {
		if newHV.bits[i] != ref[i] {
			t.Errorf("new HV word %d = %b, want %b", i, newHV.bits[i], ref[i])
		}
	}
}

func TestShadowReplaceChainProperty(t *testing.T) {
	// A chain of shadow replacements (the Fig. 11 pattern) must keep HVs
	// sound: after each edit, shadow scans with the updated HV find the
	// same matches as full scans.
	chain := []struct {
		pattern string
		repl    string
	}{
		{`'`, "&#039;"},
		{`"`, "&quot;"},
		{`<`, "&lt;"},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(DefaultConfig())
		content := genContent(rng, 600)
		sieve := mustCompile(`&`)
		_, hv := a.Sieve(sieve, content, nil)
		for _, step := range chain {
			re := mustCompile(step.pattern)
			// Check scan equivalence first.
			got, _ := a.Shadow(re, content, hv)
			want := re.FindAll(content)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return false
			}
			content, hv, _, _ = a.ShadowReplace(re, content, []byte(step.repl), hv)
			// HV soundness: every special char's segment is flagged.
			ref := strlib.ClassScanRef(content, a.cfg.SegSize)
			for i := range ref {
				if hv.bits[i]&ref[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShadowVsFull(b *testing.B) {
	a := New(DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	content := genContent(rng, 65536)
	sieve := mustCompile(`<`)
	_, hv := a.Sieve(sieve, content, nil)
	shadow := mustCompile(`"[a-z]*"`)

	b.Run("shadow-sifted", func(b *testing.B) {
		b.SetBytes(int64(len(content)))
		for i := 0; i < b.N; i++ {
			a.Shadow(shadow, content, hv)
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.SetBytes(int64(len(content)))
		for i := 0; i < b.N; i++ {
			shadow.FindAll(content)
		}
	})
}
