package php

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// runTier parses src and runs it on the given runtime at the given
// tier, with optional preset globals.
func runTier(t *testing.T, rt *vm.Runtime, src string, mode TierMode, globals map[string]interface{}) (string, error) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	in := New(rt, prog)
	if mode != TierInterp {
		if err := in.EnableTier(nil, mode, DefaultTierPolicy()); err != nil {
			t.Fatalf("EnableTier: %v", err)
		}
	}
	for k, v := range globals {
		in.SetGlobal(k, v)
	}
	out, err := in.Run()
	return string(out), err
}

// tierCases exercises every statement and expression form the
// interpreter supports, plus the edge cases whose evaluation order the
// compiler must mirror (auto-vivification, nil-subject reads, loose
// equality, foreach over snapshots, break/continue, extract).
var tierCases = []struct {
	name string
	src  string
}{
	{"echo-and-html", "<p>head</p>\n<?php echo 'a', 1, 2.5, true, null; ?>\n<p>tail</p>"},
	{"arith-types", `<?php echo 1 + 2, " ", 7 % 3, " ", 7 / 2, " ", 6 / 2, " ", 2 * 3.5, " ", 1 - 9; ?>`},
	{"compare-ops", `<?php echo (3 < 5) ? "lt" : "ge", " ", 3 <=> 5, " ", "10" == "1e1" ? "eq" : "ne", " ", "abc" === "abc" ? "s" : "d"; ?>`},
	{"logic-shortcircuit", `<?php $x = 0; $r = ($x != 0) && ($x / $x > 0); echo $r ? "t" : "f"; $y = 1 || $x; echo $y ? "t" : "f"; ?>`},
	{"strings", `<?php $s = "  Mixed Case  "; echo strtoupper(trim($s)), "|", strlen($s), "|", substr($s, 2, 5), "|", str_replace("Case", "X", $s); ?>`},
	{"concat-compound", `<?php $s = "a"; $s .= "b"; $s .= 1; $n = 10; $n += 5; $n -= 3; $n *= 2; $n /= 4; echo $s, " ", $n; ?>`},
	{"arrays-literal", `<?php $a = ["x" => 1, 5 => "five", "y", 2 => "two", "z"]; foreach ($a as $k => $v) { echo $k, "=", $v, ";"; } ?>`},
	{"array-autoviv", `<?php $m["a"]["b"] = 1; $m["a"]["c"] = 2; echo $m["a"]["b"] + $m["a"]["c"]; $q[] = "first"; $q[] = "second"; echo " ", $q[0], " ", $q[1]; ?>`},
	{"array-dynamic-keys", `<?php $post = ["title" => "T", "author" => "A", "id" => 7]; $out = ""; foreach (["author", "id", "title"] as $fld) { $out .= $post[$fld] . ";"; } echo $out; ?>`},
	{"nil-subject-read", `<?php echo $nothing["k"] === null ? "null" : "set"; echo "|", $nothing === null ? "still-null" : "vivified"; ?>`},
	{"string-index", `<?php $s = "hello"; echo $s[0], $s[4], $s[99], $s[-1] === "" ? "oob" : "?"; ?>`},
	{"while-break-continue", `<?php $i = 0; while (true) { $i++; if ($i % 2 == 0) { continue; } if ($i > 7) { break; } echo $i, ","; } echo "done", $i; ?>`},
	{"for-nested", `<?php for ($i = 0; $i < 3; $i++) { for ($j = 0; $j < 3; $j++) { if ($j == 2) { continue; } echo $i * 3 + $j, " "; } } ?>`},
	{"foreach-break-nested", `<?php foreach ([1, 2, 3] as $a) { foreach (["x", "y"] as $b) { if ($b == "y" && $a == 2) { break; } echo $a, $b, " "; } } ?>`},
	{"functions-recursion", `<?php function fib($n) { if ($n < 2) { return $n; } return fib($n - 1) + fib($n - 2); } echo fib(10); ?>`},
	{"functions-defaults", `<?php function greet($who, $extra) { return "hi " . $who . ($extra === null ? "" : "!"); } echo greet("ann"), "|", greet("bob", 1); ?>`},
	{"isset-unset", `<?php $a = ["k" => 1]; echo isset($a["k"]) ? "y" : "n"; unset($a["k"]); echo isset($a["k"]) ? "y" : "n"; $v = 3; echo isset($v) ? "y" : "n"; unset($v); echo isset($v) ? "y" : "n"; ?>`},
	{"extract", `<?php function render($post) { extract($post); return $title . "/" . $author; } echo render(["title" => "T1", "author" => "A1"]), " ", render(["title" => "T2", "author" => "A2", 0 => "skipped"]); ?>`},
	{"incdec", `<?php $i = 5; echo $i++, " ", $i, " ", $i--, " ", --$i, " "; $a = ["n" => 1]; $a["n"]++; echo $a["n"]; ?>`},
	{"ternary-nested", `<?php $n = 7; echo $n > 10 ? "big" : ($n > 5 ? "mid" : "small"); ?>`},
	{"builtins-array", `<?php $a = ["b" => 2, "a" => 1, "c" => 3]; echo count($a), " ", implode(",", array_keys($a)), " ", implode(",", array_values($a)), " ", in_array(2, $a) ? "y" : "n", " ", array_key_exists("c", $a) ? "y" : "n"; ?>`},
	{"builtins-merge-explode", `<?php $m = array_merge([1, 2], ["k" => "v"], [3]); echo count($m), " ", $m[2], " ", $m["k"], " "; $parts = explode("-", "a-b-c"); echo $parts[1], " ", implode("+", $parts); ?>`},
	{"regex", `<?php $t = "the \"quick\" fox\njumps <b>high</b>"; $t = preg_replace('/"/', "&quot;", $t); $t = preg_replace('/</', "&lt;", $t); echo $t, "|", preg_match('/fox/', $t), preg_match_all('/h/', $t); ?>`},
	{"sprintf-misc", `<?php echo sprintf("%s has %d items (%f)", "cart", 3, 2.5), " ", intval("42x"), " ", strval(9), " ", abs(-7), " ", max(1, 9, 4), " ", min(2, 8); ?>`},
	{"numeric-strings", `<?php echo "10" == "1e1" ? "eq" : "ne", " ", "10" <= "1e1" ? "le" : "gt", " ", "abc" == "abd" ? "eq" : "ne"; ?>`},
	{"global-preset", `<?php echo "req=", $req, " next=", $req + 1; ?>`},
	{"mixed-key-types", `<?php $a = []; $a[true] = "t"; $a[2.9] = "f"; $a[null] = "n"; $a["s"] = "s"; foreach ($a as $k => $v) { echo $k === "" ? "(empty)" : $k, ":", $v, " "; } ?>`},
}

// TestTierOutputEquivalence requires byte-identical output from the
// tree-walker and the bytecode tier within each runtime, on software and
// accelerated runtimes — and, across runtimes, identical output modulo
// the regex accelerator's by-design alignment padding (§4.5), the same
// whitespace-sifting convention TestAcceleratedEquivalence uses.
func TestTierOutputEquivalence(t *testing.T) {
	norm := func(s string) string { return strings.ReplaceAll(s, " ", "") }
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			globals := map[string]interface{}{"req": int64(3)}
			ref, refErr := runTier(t, swRT(), tc.src, TierInterp, globals)
			if refErr != nil {
				t.Fatalf("interp/sw: %v", refErr)
			}
			bcSW, err := runTier(t, swRT(), tc.src, TierBytecode, globals)
			if err != nil {
				t.Fatalf("bytecode/sw: %v", err)
			}
			if bcSW != ref {
				t.Errorf("bytecode/sw diverges:\n ref: %q\n got: %q", ref, bcSW)
			}
			hwRef, err := runTier(t, hwRT(), tc.src, TierInterp, globals)
			if err != nil {
				t.Fatalf("interp/hw: %v", err)
			}
			if norm(hwRef) != norm(ref) {
				t.Errorf("interp/hw diverges beyond regex padding:\n ref: %q\n got: %q", ref, hwRef)
			}
			bcHW, err := runTier(t, hwRT(), tc.src, TierBytecode, globals)
			if err != nil {
				t.Fatalf("bytecode/hw: %v", err)
			}
			if bcHW != hwRef {
				t.Errorf("bytecode/hw diverges from interp/hw:\n ref: %q\n got: %q", hwRef, bcHW)
			}
		})
	}
}

// TestTierErrorEquivalence requires the bytecode tier to reproduce the
// tree-walker's runtime errors, message for message.
func TestTierErrorEquivalence(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"index-non-array", `<?php $x = 5; echo $x["k"]; ?>`},
		{"store-non-array", `<?php $x = "str"; $x["k"] = 1; ?>`},
		{"foreach-non-array", `<?php foreach (42 as $v) { echo $v; } ?>`},
		{"undefined-function", `<?php no_such_fn(1); ?>`},
		{"append-read", `<?php $a = [1]; echo $a[]; ?>`},
		{"illegal-key", `<?php $a = [1]; $b = [2]; echo $a[$b]; ?>`},
		{"break-at-top", `<?php break; ?>`},
		{"unset-non-lvalue", `<?php unset(5); ?>`},
		{"arity", `<?php echo strlen(); ?>`},
		{"depth-limit", `<?php function dive($n) { return dive($n + 1); } echo dive(0); ?>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, refErr := runTier(t, swRT(), tc.src, TierInterp, nil)
			if refErr == nil {
				t.Fatalf("interp: expected an error")
			}
			_, bcErr := runTier(t, swRT(), tc.src, TierBytecode, nil)
			if bcErr == nil {
				t.Fatalf("bytecode: expected an error, interp said %q", refErr)
			}
			if refErr.Error() != bcErr.Error() {
				t.Errorf("error mismatch:\n interp:   %q\n bytecode: %q", refErr, bcErr)
			}
		})
	}
}

// TestBreakInsideFunctionReturnsNull mirrors the tree-walker's quiet
// handling of break/continue escaping a function body.
func TestBreakInsideFunctionReturnsNull(t *testing.T) {
	src := `<?php function odd() { break; return 1; } echo odd() === null ? "null" : "other"; ?>`
	ref, err := runTier(t, swRT(), src, TierInterp, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	got, err := runTier(t, swRT(), src, TierBytecode, nil)
	if err != nil {
		t.Fatalf("bytecode: %v", err)
	}
	if got != ref || ref != "null" {
		t.Fatalf("ref %q, bytecode %q", ref, got)
	}
}

// TestInlineCachesSpecialize drives a dynamic-key access site hot and
// checks the per-worker polymorphic inline caches converge: after the
// first pass over the shapes, subsequent passes hit.
func TestInlineCachesSpecialize(t *testing.T) {
	src := `<?php
$post = ["title" => "T", "author" => "A", "href" => "/p", "body" => "B"];
for ($i = 0; $i < 50; $i++) {
	foreach (["title", "author", "href", "body"] as $fld) {
		$x = $post[$fld];
	}
}
echo "ok";
?>`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(hwRT(), prog)
	if err := in.EnableTier(nil, TierBytecode, DefaultTierPolicy()); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	snap := in.TierSnapshot()
	if snap.ICHits == 0 {
		t.Fatal("expected inline-cache hits on a stable 4-shape site")
	}
	if snap.ICMisses > 8 {
		t.Errorf("stable site should miss only while warming: %d misses", snap.ICMisses)
	}
	if snap.MegamorphicSites != 0 {
		t.Errorf("no site should go megamorphic: %d", snap.MegamorphicSites)
	}
	if snap.ICHits < 150 {
		t.Errorf("expected ≥150 IC hits over 200 accesses, got %d", snap.ICHits)
	}
}

// TestMegamorphicSiteFallsBack drives one site past its ways.
func TestMegamorphicSiteFallsBack(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<?php $m = [`)
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, `"k%d" => %d,`, i, i)
	}
	sb.WriteString(`]; foreach (array_keys($m) as $k) { echo $m[$k]; } echo "|done";`)
	prog, err := Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	in := New(hwRT(), prog)
	if err := in.EnableTier(nil, TierBytecode, DefaultTierPolicy()); err != nil {
		t.Fatal(err)
	}
	out, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "01234567|done" {
		t.Fatalf("output %q", out)
	}
	if snap := in.TierSnapshot(); snap.MegamorphicSites == 0 {
		t.Error("an 8-key dynamic site should overflow its 4 ways")
	}
}

// TestTierAutoPromotesHotFunctions runs enough identical requests for
// the auto policy to promote the script's hot functions, and verifies
// promotion changes the executing tier without changing output.
func TestTierAutoPromotesHotFunctions(t *testing.T) {
	src := `<?php
function hot($n) { return $n * 2 + 1; }
$sum = 0;
for ($i = 0; $i < 40; $i++) { $sum += hot($i); }
echo $sum;
?>`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(swRT(), prog)
	policy := TierPolicy{WindowRequests: 4, HotCalls: 32, HotWindows: 2, ColdCalls: 1, ColdWindows: 4}
	if err := in.EnableTier(nil, TierAuto, policy); err != nil {
		t.Fatal(err)
	}
	var first, last string
	for i := 0; i < 20; i++ {
		out, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = string(out)
		}
		last = string(out)
	}
	if first != last {
		t.Fatalf("output changed across tier-up: %q vs %q", first, last)
	}
	snap := in.TierSnapshot()
	if snap.Promotions == 0 {
		t.Fatalf("expected promotions after 20 hot requests: %+v", snap)
	}
	want := map[string]bool{"hot": true, "php_main": true}
	for _, fn := range snap.Fns {
		if fn.Tier == "bytecode" && !want[fn.Name] {
			t.Errorf("unexpected promotion: %s", fn.Name)
		}
	}
	if snap.PromotedFunctions == 0 {
		t.Fatal("promoted set empty")
	}
	if snap.BytecodeCalls == 0 || snap.InterpCalls == 0 {
		t.Errorf("expected mixed-tier execution across the run: bc=%d interp=%d", snap.BytecodeCalls, snap.InterpCalls)
	}
}

// TestTierDeterminism: same program, same request sequence → identical
// promotion sets and identical IC counters on two fresh interpreters.
func TestTierDeterminism(t *testing.T) {
	src := `<?php
function render($post) { $s = ""; foreach (["a", "b", "c"] as $f) { $s .= $post[$f]; } return $s; }
echo render(["a" => $req, "b" => "x", "c" => "y"]);
?>`
	run := func() TierSnapshot {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		in := New(hwRT(), prog)
		if err := in.EnableTier(nil, TierAuto, TierPolicy{WindowRequests: 4, HotCalls: 1, HotWindows: 2, ColdCalls: 0, ColdWindows: 4}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			in.SetGlobal("req", int64(i))
			if _, err := in.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return in.TierSnapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Fns, b.Fns) {
		t.Errorf("per-function tiers and counters differ: %v vs %v", a.Fns, b.Fns)
	}
	if a.ICHits != b.ICHits || a.ICMisses != b.ICMisses {
		t.Errorf("IC counters differ: %d/%d vs %d/%d", a.ICHits, a.ICMisses, b.ICHits, b.ICMisses)
	}
	if a.Promotions != b.Promotions || a.Requests != b.Requests {
		t.Errorf("tier counters differ: %+v vs %+v", a, b)
	}
}

// TestBytecodeCheaperDispatch: the tier's raison d'être — the same
// script charges fewer CatOther (interpreter dispatch) cycles compiled
// than tree-walked, with all accelerator-visible work unchanged.
func TestBytecodeCheaperDispatch(t *testing.T) {
	src := `<?php
function work($n) {
	$a = [];
	for ($i = 0; $i < $n; $i++) { $a["k" . $i] = $i * 2; }
	$sum = 0;
	foreach ($a as $k => $v) { $sum += $v; }
	return $sum;
}
echo work(60);
?>`
	measure := func(mode TierMode) float64 {
		rt := swRT()
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		in := New(rt, prog)
		if mode != TierInterp {
			if err := in.EnableTier(nil, mode, DefaultTierPolicy()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		// Dispatch overhead lands in CatOther (charge / the bytecode
		// loop); hash and string work is identical across tiers.
		var other float64
		for _, fstat := range rt.Meter().Functions() {
			if fstat.Category != sim.CatOther {
				continue
			}
			if fstat.Name == "php_main" || fstat.Name == "work" {
				other += fstat.Uops
			}
		}
		return other
	}
	interp := measure(TierInterp)
	bc := measure(TierBytecode)
	if bc >= interp {
		t.Fatalf("bytecode dispatch should be cheaper: interp=%.0f bytecode=%.0f uops", interp, bc)
	}
	if bc > interp*0.8 {
		t.Errorf("expected ≥20%% dispatch reduction: interp=%.0f bytecode=%.0f", interp, bc)
	}
}
