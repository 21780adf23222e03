package vm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hashmap"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
)

func swRuntime() *Runtime {
	return New(Config{})
}

func hwRuntime() *Runtime {
	return New(Config{Features: isa.AllAccelerators(), Mitigations: sim.AllMitigations()})
}

func TestArrayLifecycle(t *testing.T) {
	r := hwRuntime()
	a := r.NewArray("f")
	r.ASet("f", a, hashmap.StrKey("k"), []byte("v"), true)
	if v, ok := r.AGet("f", a, hashmap.StrKey("k"), true); !ok || string(v.([]byte)) != "v" {
		t.Errorf("AGet = %v %v", v, ok)
	}
	if !r.ADelete("f", a, hashmap.StrKey("k")) {
		// With the hardware hash table a silent SET lives only in hardware;
		// Delete still must make it unobservable.
		if _, ok := r.AGet("f", a, hashmap.StrKey("k"), true); ok {
			t.Errorf("deleted key visible")
		}
	}
	r.FreeArray("f", a)
}

func TestFreeArrayPanicsOnDoubleFree(t *testing.T) {
	r := swRuntime()
	a := r.NewArray("f")
	r.FreeArray("f", a)
	defer func() {
		if recover() == nil {
			t.Errorf("double FreeArray should panic")
		}
	}()
	r.FreeArray("f", a)
}

func TestExtractImportsAllPairs(t *testing.T) {
	r := hwRuntime()
	src := r.NewArray("f")
	dst := r.NewArray("f")
	for i := 0; i < 10; i++ {
		r.ASet("f", src, hashmap.StrKey(fmt.Sprintf("var%d", i)), i, false)
	}
	if n := r.Extract("extract", dst, src); n != 10 {
		t.Fatalf("Extract moved %d pairs", n)
	}
	var order []string
	r.AForeach("f", dst, func(k hashmap.Key, v interface{}) bool {
		order = append(order, k.Str)
		return true
	})
	if len(order) != 10 || order[0] != "var0" || order[9] != "var9" {
		t.Errorf("extract order wrong: %v", order)
	}
}

func TestStrLifecycle(t *testing.T) {
	r := hwRuntime()
	s := r.NewStr("f", []byte("hello"))
	if string(s.Bytes()) != "hello" {
		t.Errorf("Str accessors wrong")
	}
	r.FreeStr("f", s)
	defer func() {
		if recover() == nil {
			t.Errorf("double FreeStr should panic")
		}
	}()
	r.FreeStr("f", s)
}

func TestRegexManagerCaches(t *testing.T) {
	r := hwRuntime()
	re1 := r.MustRegex("f", `<[a-z]+>`)
	re2 := r.MustRegex("f", `<[a-z]+>`)
	if re1 != re2 {
		t.Errorf("regex manager should return the cached FSM")
	}
	// Compilation charged once.
	var compiles int64
	for _, f := range r.Meter().Functions() {
		if f.Name == "pcre_compile" {
			compiles = f.Calls
		}
	}
	if compiles != 1 {
		t.Errorf("pcre_compile calls = %d, want 1", compiles)
	}
}

func TestOutputBuffer(t *testing.T) {
	r := swRuntime()
	ob := r.NewOutputBuffer("render")
	ob.WriteString("<html>")
	ob.Write([]byte("body"))
	ob.WriteString("</html>")
	if string(ob.Bytes()) != "<html>body</html>" {
		t.Errorf("buffer = %q", ob.Bytes())
	}
	if r.Meter().TotalUops() == 0 {
		t.Errorf("buffer writes must be charged")
	}
}

func TestBuildTagEquivalence(t *testing.T) {
	build := func(r *Runtime) string {
		attrs := r.NewArray("f")
		r.ASet("f", attrs, hashmap.StrKey("href"), []byte(`/page?a=1&b=2`), false)
		r.ASet("f", attrs, hashmap.StrKey("title"), []byte(`say "hi"`), false)
		out := r.BuildTag("f", "a", attrs, []byte("link"))
		r.FreeArray("f", attrs)
		return string(out)
	}
	sw := build(swRuntime())
	hw := build(hwRuntime())
	want := `<a href="/page?a=1&amp;b=2" title="say &quot;hi&quot;">link</a>`
	if sw != want {
		t.Errorf("software tag = %q, want %q", sw, want)
	}
	if sw != hw {
		t.Errorf("accelerated tag differs:\n sw %q\n hw %q", sw, hw)
	}
}

func TestChainEquivalenceModuloPadding(t *testing.T) {
	steps := []ChainStep{
		{Pattern: `'`, Repl: "&#039;"},
		{Pattern: `"`, Repl: "&quot;"},
		{Pattern: "\n", Repl: "<br/>"},
		{Pattern: `<`, Repl: "&lt;"},
	}
	content := []byte("it's a \"test\"\nwith " + strings.Repeat("filler text ", 30) + "'ends'")

	apply := func(r *Runtime) (string, int) {
		ch, err := r.RefreshChain(nil, "wptexturize", steps)
		if err != nil {
			t.Fatal(err)
		}
		out, n := ch.Apply("wptexturize", content)
		return string(out), n
	}
	swOut, swN := apply(swRuntime())
	hwOut, hwN := apply(hwRuntime())
	if swN != hwN {
		t.Errorf("replacement counts differ: %d vs %d", swN, hwN)
	}
	norm := func(s string) string { return strings.ReplaceAll(s, " ", "") }
	if norm(swOut) != norm(hwOut) {
		t.Errorf("chain output differs beyond padding:\n sw %q\n hw %q", swOut, hwOut)
	}
}

func TestChainPropertyEquivalence(t *testing.T) {
	// Chain steps must be padding-insensitive (see Chain doc); the Fig. 11
	// set of single special characters is the canonical example.
	steps := []ChainStep{
		{Pattern: `'`, Repl: "&#039;"},
		{Pattern: `&`, Repl: "&amp;"},
		{Pattern: `<`, Repl: "&lt;"},
	}
	f := func(seed int64) bool {
		content := genText(seed, 500)
		sw, swN := func() ([]byte, int) {
			r := swRuntime()
			ch, _ := r.RefreshChain(nil, "f", steps)
			return ch.Apply("f", append([]byte(nil), content...))
		}()
		hw, hwN := func() ([]byte, int) {
			r := hwRuntime()
			ch, _ := r.RefreshChain(nil, "f", steps)
			return ch.Apply("f", append([]byte(nil), content...))
		}()
		if swN != hwN {
			return false
		}
		return strings.ReplaceAll(string(sw), " ", "") == strings.ReplaceAll(string(hw), " ", "")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// genText produces deterministic HTML-flavored text.
func genText(seed int64, n int) []byte {
	state := uint64(seed)*2654435761 + 1
	next := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % m
	}
	specials := []byte(`'"<>&`)
	out := make([]byte, n)
	for i := range out {
		if next(15) == 0 {
			out[i] = specials[next(len(specials))]
		} else {
			out[i] = byte('a' + next(26))
		}
	}
	return out
}

func TestScanURLEquivalence(t *testing.T) {
	pattern := `https://[a-z]+/\?author=[a-z0-9]+`
	for i := 0; i < 20; i++ {
		url := []byte(fmt.Sprintf("https://localhost/?author=user%d", i))
		sw := swRuntime()
		hw := hwRuntime()
		swEnd := sw.ScanURL("f", sw.MustRegex("f", pattern), 7, url)
		hwEnd := hw.ScanURL("f", hw.MustRegex("f", pattern), 7, url)
		if swEnd != hwEnd {
			t.Errorf("url %d: sw %d hw %d", i, swEnd, hwEnd)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	r := New(Config{TraceCapacity: 0})
	r.BeginRequest()
	a := r.NewArray("f")
	r.ASet("f", a, hashmap.StrKey("k"), 1, true)
	r.AGet("f", a, hashmap.StrKey("k"), true)
	r.EscapeHTML("f", []byte("<x>"))
	ev := r.Trace().Events()
	kinds := map[trace.Kind]int{}
	for _, e := range ev {
		kinds[e.Kind]++
	}
	if kinds[trace.KindRequest] != 1 || kinds[trace.KindHashSet] != 1 ||
		kinds[trace.KindHashGet] != 1 || kinds[trace.KindStringOp] != 1 ||
		kinds[trace.KindAlloc] == 0 {
		t.Errorf("trace kinds = %v", kinds)
	}
}

// TestRegexCacheLookupTraced is the regression test for regex manager
// cache hits bypassing the trace: both the miss (compile) and the hit
// must record the dynamic-key hash access attributed to the manager.
func TestRegexCacheLookupTraced(t *testing.T) {
	r := New(Config{TraceCapacity: 0})
	pattern := `<[a-z]+>`
	r.MustRegex("f", pattern) // miss: get + compile + set
	r.MustRegex("f", pattern) // hit: get only
	var gets, sets int
	for _, e := range r.Trace().Events() {
		if e.Fn != "regex_cache_lookup" {
			continue
		}
		if e.C != 1 {
			t.Errorf("regex manager access not marked dynamic: %+v", e)
		}
		if e.B != uint64(len(pattern)) {
			t.Errorf("key length %d, want %d", e.B, len(pattern))
		}
		switch e.Kind {
		case trace.KindHashGet:
			gets++
		case trace.KindHashSet:
			sets++
		}
	}
	if gets != 2 || sets != 1 {
		t.Errorf("regex manager trace: %d gets, %d sets; want 2 gets (miss+hit), 1 set", gets, sets)
	}
}

// TestTraceCountOnly: TraceCapacity -1 (the serving configuration)
// keeps no event but counts every one, by kind, exactly as a recorder
// that keeps them all.
func TestTraceCountOnly(t *testing.T) {
	run := func(capacity int) *trace.Recorder {
		r := New(Config{Features: isa.AllAccelerators(), TraceCapacity: capacity})
		r.BeginRequest()
		a := r.NewArray("f")
		r.ASet("f", a, hashmap.StrKey("k"), 1, true)
		r.AGet("f", a, hashmap.StrKey("k"), false)
		r.ADelete("f", a, hashmap.StrKey("k"))
		r.FreeStr("f", r.NewStr("f", r.EscapeHTML("f", []byte("<x>"))))
		r.MustRegex("f", `<[a-z]+>`)
		r.FreeArray("f", a)
		return r.Trace()
	}
	counted, kept := run(-1), run(0)
	if len(counted.Events()) != 0 {
		t.Errorf("counting trace kept %d events", len(counted.Events()))
	}
	if counted.KindTotals() != kept.KindTotals() || counted.Total() != int64(len(kept.Events())) {
		t.Errorf("counted kinds %v (total %d), kept %v (%d events)",
			counted.KindTotals(), counted.Total(), kept.KindTotals(), len(kept.Events()))
	}
}

func TestStringWrappersEquivalent(t *testing.T) {
	subject := []byte("  The <b>Quick</b> fox's \"day\"  ")
	ops := func(r *Runtime) string {
		var sb strings.Builder
		sb.Write(r.EscapeHTML("f", subject))
		sb.Write(r.ToUpper("f", subject))
		sb.Write(r.ToLower("f", subject))
		sb.Write(r.Trim("f", subject))
		sb.Write(r.Replace("f", subject, []byte("fox"), []byte("wolf")))
		sb.Write(r.Translate("f", subject, []byte("aeiou"), []byte("AEIOU")))
		fmt.Fprint(&sb, r.Find("f", subject, []byte("Quick")))
		fmt.Fprint(&sb, r.Compare("f", subject, []byte("zzz")))
		sb.Write(r.Concat("f", subject, []byte("|end")))
		return sb.String()
	}
	if ops(swRuntime()) != ops(hwRuntime()) {
		t.Errorf("string wrapper results differ between cores")
	}
}

func TestContextSwitchPreservesState(t *testing.T) {
	r := hwRuntime()
	a := r.NewArray("f")
	r.ASet("f", a, hashmap.StrKey("persist"), 42, true)
	r.ContextSwitch()
	if v, ok := r.AGet("f", a, hashmap.StrKey("persist"), true); !ok || v != 42 {
		t.Errorf("value lost across context switch: %v %v", v, ok)
	}
}

// TestRegexNegativeCaching is the regression test for failed compiles
// bypassing the regex manager: an invalid pattern must pay pcre_compile
// once, with every later lookup a cache hit replaying the stored error.
func TestRegexNegativeCaching(t *testing.T) {
	r := New(Config{TraceCapacity: 0})
	const bad = `(unclosed`
	_, err1 := r.Regex("f", bad)
	if err1 == nil {
		t.Fatalf("pattern %q should fail to compile", bad)
	}
	lookups0, hits0 := r.RegexCacheStats()
	_, err2 := r.Regex("f", bad)
	if err2 == nil {
		t.Fatal("cached failure must still return the error")
	}
	if err2.Error() != err1.Error() {
		t.Errorf("replayed error %q differs from original %q", err2, err1)
	}
	lookups1, hits1 := r.RegexCacheStats()
	if lookups1 != lookups0+1 || hits1 != hits0+1 {
		t.Errorf("second lookup of a failed pattern must be a cache hit: lookups %d->%d, hits %d->%d",
			lookups0, lookups1, hits0, hits1)
	}
	// The trace shows exactly one manager store (the cached failure) and
	// two probes — the second lookup never re-entered the compiler.
	var gets, sets int
	for _, e := range r.Trace().Events() {
		if e.Fn != "regex_cache_lookup" {
			continue
		}
		switch e.Kind {
		case trace.KindHashGet:
			gets++
		case trace.KindHashSet:
			sets++
		}
	}
	if gets != 2 || sets != 1 {
		t.Errorf("regex manager trace: %d gets, %d sets; want 2 gets, 1 set (error compiled once)", gets, sets)
	}
	// A valid pattern still works alongside the cached failure.
	if _, err := r.Regex("f", `<[a-z]+>`); err != nil {
		t.Errorf("valid pattern after cached failure: %v", err)
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range ConfigNames {
		if _, err := ConfigByName(name); err != nil {
			t.Errorf("ConfigByName(%q) = %v", name, err)
		}
	}
	acc, _ := ConfigByName("accelerated")
	if acc.Features != isa.AllAccelerators() || acc.Mitigations != sim.AllMitigations() {
		t.Errorf("accelerated = %+v, want all mitigations and all accelerators", acc)
	}
	if _, err := ConfigByName("turbo"); err == nil {
		t.Errorf("unknown config should error")
	}
}
