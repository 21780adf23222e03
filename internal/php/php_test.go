package php

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
)

func swRT() *vm.Runtime { return vm.New(vm.Config{TraceCapacity: -1}) }

func hwRT() *vm.Runtime {
	return vm.New(vm.Config{Features: isa.AllAccelerators(), Mitigations: sim.AllMitigations(), TraceCapacity: -1})
}

// runScript parses and runs src on rt in one call.
func runScript(rt *vm.Runtime, src string) ([]byte, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return New(rt, prog).Run()
}

// runSrc executes src on a software runtime and returns the output.
func runSrc(t *testing.T, src string) string {
	t.Helper()
	out, err := runScript(swRT(), src)
	if err != nil {
		t.Fatalf("RunScript: %v", err)
	}
	return string(out)
}

func TestInlineHTMLPassthrough(t *testing.T) {
	got := runSrc(t, "<h1>Title</h1>\n<?php echo 'x'; ?>\n<p>tail</p>")
	if got != "<h1>Title</h1>\nx<p>tail</p>" {
		t.Errorf("output = %q", got)
	}
}

func TestEchoAndArithmetic(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<?php echo 1 + 2 * 3;`, "7"},
		{`<?php echo (1 + 2) * 3;`, "9"},
		{`<?php echo 10 / 4;`, "2.5"},
		{`<?php echo 10 / 5;`, "2"},
		{`<?php echo 10 % 3;`, "1"},
		{`<?php echo -5 + 2;`, "-3"},
		{`<?php echo "a" . "b" . 3;`, "ab3"},
		{`<?php echo 1.5 + 1;`, "2.5"},
		{`<?php echo true, false, null;`, "1"},
	}
	for _, c := range cases {
		if got := runSrc(t, c.src); got != c.want {
			t.Errorf("%s => %q, want %q", c.src, got, c.want)
		}
	}
}

func TestVariablesAndAssignment(t *testing.T) {
	got := runSrc(t, `<?php
$x = 3;
$y = $x * 2;
$y += 4;
$s = "v=";
$s .= $y;
echo $s;
`)
	if got != "v=10" {
		t.Errorf("output = %q", got)
	}
}

func TestIfElseChain(t *testing.T) {
	src := `<?php
$n = %s;
if ($n > 10) { echo "big"; }
elseif ($n > 5) { echo "mid"; }
else { echo "small"; }
`
	for n, want := range map[string]string{"20": "big", "7": "mid", "1": "small"} {
		if got := runSrc(t, strings.Replace(src, "%s", n, 1)); got != want {
			t.Errorf("n=%s => %q, want %q", n, got, want)
		}
	}
}

func TestWhileLoopAndIncDec(t *testing.T) {
	got := runSrc(t, `<?php
$i = 0;
$sum = 0;
while ($i < 5) {
	$sum += $i;
	$i++;
}
echo $sum;
`)
	if got != "10" {
		t.Errorf("output = %q", got)
	}
}

func TestBreakContinue(t *testing.T) {
	got := runSrc(t, `<?php
$i = 0;
while (true) {
	$i++;
	if ($i == 3) { continue; }
	if ($i > 5) { break; }
	echo $i;
}
`)
	if got != "1245" {
		t.Errorf("output = %q", got)
	}
}

func TestArraysLiteralIndexForeach(t *testing.T) {
	got := runSrc(t, `<?php
$a = ['x' => 1, 'y' => 2, 5 => "five", "tail"];
echo $a['x'], $a['y'], $a[5], $a[6];
echo "|";
foreach ($a as $k => $v) {
	echo $k, "=", $v, ";";
}
echo "|", count($a);
`)
	want := "12fivetail|x=1;y=2;5=five;6=tail;|4"
	if got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestArrayAppendAndUnset(t *testing.T) {
	got := runSrc(t, `<?php
$a = [];
$a[] = "p";
$a[] = "q";
unset($a[0]);
$a[] = "r";
foreach ($a as $k => $v) { echo $k, $v; }
`)
	if got != "1q2r" {
		t.Errorf("output = %q", got)
	}
}

func TestAutoVivification(t *testing.T) {
	got := runSrc(t, `<?php
$a['first']['second'] = 7;
echo $a['first']['second'];
`)
	if got != "7" {
		t.Errorf("output = %q", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	got := runSrc(t, `<?php
function fib($n) {
	if ($n < 2) { return $n; }
	return fib($n - 1) + fib($n - 2);
}
echo fib(10);
`)
	if got != "55" {
		t.Errorf("fib(10) = %q", got)
	}
}

func TestFunctionLocalsAreScoped(t *testing.T) {
	got := runSrc(t, `<?php
$x = "global";
function f() {
	$x = "local";
	return $x;
}
echo f(), "|", $x;
`)
	if got != "local|global" {
		t.Errorf("output = %q", got)
	}
}

func TestStringBuiltins(t *testing.T) {
	got := runSrc(t, `<?php
echo strtoupper("abc"), "|";
echo strtolower("XYZ"), "|";
echo trim("  pad  "), "|";
echo str_replace("o", "0", "foo bar"), "|";
echo strpos("hello world", "world"), "|";
echo substr("abcdef", 1, 3), "|";
echo substr("abcdef", -2), "|";
echo strlen("abcd"), "|";
echo htmlspecialchars("<a href=\"x\">"), "|";
echo nl2br("a
b"), "|";
echo implode(",", ["p", "q", "r"]), "|";
echo str_repeat("ab", 3), "|";
echo sprintf("%s=%d", "n", 42);
`)
	want := `ABC|xyz|pad|f00 bar|6|bcd|ef|4|&lt;a href=&quot;x&quot;&gt;|a<br />
b|p,q,r|ababab|n=42`
	if got != want {
		t.Errorf("output = %q\nwant %q", got, want)
	}
}

func TestExplodeImplodeRoundTrip(t *testing.T) {
	got := runSrc(t, `<?php
$parts = explode("/", "a/b/c");
echo count($parts), "|", implode("-", $parts);
`)
	if got != "3|a-b-c" {
		t.Errorf("output = %q", got)
	}
}

func TestPregBuiltins(t *testing.T) {
	got := runSrc(t, `<?php
echo preg_replace('/<\/?[a-z]+>/', "[tag]", "a <em>b</em> c"), "|";
echo preg_match('/[0-9]+/', "id 42"), preg_match('/z/', "abc"), "|";
echo preg_match_all('/a/', "banana"), "|";
$bits = preg_split('/,\s*/', "x, y,z");
echo implode("|", $bits);
`)
	want := "a [tag]b[tag] c|10|3|x|y|z"
	if got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestExtractDynamicKeys(t *testing.T) {
	got := runSrc(t, `<?php
$vars = ['title' => "Hello", 'author' => "gope"];
extract($vars);
echo $title, " by ", $author;
`)
	if got != "Hello by gope" {
		t.Errorf("output = %q", got)
	}
}

func TestIssetAndTernary(t *testing.T) {
	got := runSrc(t, `<?php
$a = ['k' => 1];
echo isset($a['k']) ? "yes" : "no";
echo isset($a['missing']) ? "yes" : "no";
echo isset($undefined) ? "yes" : "no";
`)
	if got != "yesnono" {
		t.Errorf("output = %q", got)
	}
}

func TestComparisonSemantics(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<?php echo 1 == "1" ? "t" : "f";`, "t"},
		{`<?php echo 1 === "1" ? "t" : "f";`, "f"},
		{`<?php echo "abc" == "abc" ? "t" : "f";`, "t"},
		{`<?php echo 2 < 10 ? "t" : "f";`, "t"},
		{`<?php echo "2" < "10" ? "t" : "f";`, "t"}, // numeric strings compare numerically
		{`<?php echo "b" > "a" ? "t" : "f";`, "t"},
		{`<?php echo 1 <=> 2;`, "-1"},
		{`<?php echo !false ? "t" : "f";`, "t"},
		{`<?php echo (1 && 0) ? "t" : "f";`, "f"},
		{`<?php echo (0 || 3) ? "t" : "f";`, "t"},
	}
	for _, c := range cases {
		if got := runSrc(t, c.src); got != c.want {
			t.Errorf("%s => %q, want %q", c.src, got, c.want)
		}
	}
}

func TestArrayHelpers(t *testing.T) {
	got := runSrc(t, `<?php
$a = ['x' => 1, 'y' => 2];
echo implode(",", array_keys($a)), "|";
echo implode(",", array_values($a)), "|";
echo array_key_exists('x', $a) ? "t" : "f";
echo in_array(2, $a) ? "t" : "f";
echo in_array(9, $a) ? "t" : "f";
$m = array_merge(["a"], ["b", 'k' => "c"]);
echo "|", implode(",", $m), "|", $m['k'];
`)
	want := "x,y|1,2|ttf|a,b,c|c"
	if got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<?php echo ;`,
		`<?php if (1) { echo 1;`,
		`<?php if (`,
		`<?php $x = ;`,
		`<?php foreach ($a) {}`,
		`<?php function f( {}`,
		`<?php 1 = 2;`,
		`<?php echo "unterminated;`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	bad := []string{
		`<?php nosuchfunction();`,
		`<?php foreach (42 as $v) {}`,
		`<?php $x = 1; $x['k'];`,
		`<?php echo preg_replace('/[/', "x", "y");`,
	}
	for _, src := range bad {
		if _, err := runScript(swRT(), src); err == nil {
			t.Errorf("runScript(%q) should fail", src)
		}
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	_, err := runScript(swRT(), `<?php
function loop($n) { return loop($n + 1); }
echo loop(0);
`)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("unbounded recursion should hit the depth limit: %v", err)
	}
}

// TestAcceleratedEquivalence runs a template-style script on the software
// and accelerated runtimes; output must match modulo sifting whitespace.
func TestAcceleratedEquivalence(t *testing.T) {
	src := `<?php
function render_item($meta) {
	$title = htmlspecialchars(strtoupper(trim($meta['title'])));
	$body = preg_replace('/"/', "&quot;", $meta['body']);
	return "<h2>" . $title . "</h2><p>" . nl2br($body) . "</p>";
}
$posts = [
	['title' => " it's a start ", 'body' => "line one
with a \"quote\" inside"],
	['title' => "second post", 'body' => "plain body text"],
];
foreach ($posts as $p) {
	echo render_item($p);
}
`
	sw, err := runScript(swRT(), src)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := runScript(hwRT(), src)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(b []byte) string { return strings.ReplaceAll(string(b), " ", "") }
	if norm(sw) != norm(hw) {
		t.Errorf("accelerated output differs:\n sw %q\n hw %q", sw, hw)
	}
	if !strings.Contains(string(sw), "<h2>IT&#039;S A START</h2>") &&
		!strings.Contains(string(sw), "IT'S A START") {
		t.Logf("output: %s", sw)
	}
}

func TestCostsAreCharged(t *testing.T) {
	rt := swRT()
	_, err := runScript(rt, `<?php
$a = ['k' => "v"];
echo strtoupper($a['k']);
`)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Meter().TotalCycles() <= 0 {
		t.Errorf("script execution must charge the meter")
	}
	cc := rt.Meter().CategoryCycles()
	if cc[sim.CatString] == 0 || cc[sim.CatHash] == 0 || cc[sim.CatHeap] == 0 {
		t.Errorf("script should exercise string, hash, and heap categories: %v", cc)
	}
}

func TestRequestTeardownFreesArrays(t *testing.T) {
	// The allocator samples its timeline on every operation, so the last
	// sample is the state teardown left behind.
	rt := vm.New(vm.Config{TraceCapacity: -1, HeapSampleEvery: 1})
	if _, err := runScript(rt, `<?php $a = [1, 2, 3]; $b = ['x' => $a];`); err != nil {
		t.Fatal(err)
	}
	tl := rt.CPU().Alloc.Timeline()
	if left := tl[len(tl)-1].Bands; left != [5]int64{} {
		t.Errorf("request teardown leaked live bytes per size band: %v", left)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	src := `<?php
$out = "";
$i = 0;
while ($i < 20) { $out .= $i . ","; $i++; }
echo $out;
`
	a := runSrc(t, src)
	b := runSrc(t, src)
	if a != b {
		t.Errorf("script output not deterministic")
	}
}

func TestForLoop(t *testing.T) {
	got := runSrc(t, `<?php
for ($i = 0; $i < 5; $i++) { echo $i; }
echo "|";
for ($i = 10; $i > 0; $i -= 3) { echo $i, ","; }
echo "|";
$n = 0;
for (;;) { $n++; if ($n >= 3) { break; } }
echo $n;
`)
	if got != "01234|10,7,4,1,|3" {
		t.Errorf("output = %q", got)
	}
}

func TestForLoopNestedWithContinue(t *testing.T) {
	got := runSrc(t, `<?php
for ($i = 0; $i < 3; $i++) {
	for ($j = 0; $j < 3; $j++) {
		if ($j == 1) { continue; }
		echo $i, $j, " ";
	}
}
`)
	if got != "00 02 10 12 20 22 " {
		t.Errorf("output = %q", got)
	}
}

func TestStringInterpolation(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<?php $name = "world"; echo "hello $name!";`, "hello world!"},
		{`<?php $a = 1; $b = 2; echo "$a+$b";`, "1+2"},
		{`<?php $x = "v"; echo "start $x";`, "start v"},
		{`<?php $x = "v"; echo "$x end";`, "v end"},
		{`<?php echo "no vars here";`, "no vars here"},
		{`<?php $x = 5; echo "escaped \$x is $x";`, "escaped $x is 5"},
		{`<?php $x = 2; echo "a" . "$x" . "b";`, "a2b"},
		{`<?php $x = 3; $s = "pre $x post"; echo strlen($s);`, "10"},
		{`<?php echo "just a $ sign";`, "just a $ sign"},
	}
	for _, c := range cases {
		if got := runSrc(t, c.src); got != c.want {
			t.Errorf("%s => %q, want %q", c.src, got, c.want)
		}
	}
}

func TestInterpolationPrecedence(t *testing.T) {
	// The synthetic parenthesized concat must not disturb surrounding
	// operator precedence.
	got := runSrc(t, `<?php $x = "b"; echo "a$x" . "c" == "abc" ? "t" : "f";`)
	if got != "t" {
		t.Errorf("output = %q", got)
	}
}

func TestSingleQuotesDoNotInterpolate(t *testing.T) {
	got := runSrc(t, `<?php $x = 1; echo '$x stays';`)
	if got != "$x stays" {
		t.Errorf("output = %q", got)
	}
}
