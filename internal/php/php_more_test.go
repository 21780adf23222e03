package php

import (
	"strings"
	"testing"
)

func TestSetGlobalInjection(t *testing.T) {
	prog, err := Parse(`<?php echo "request #$req by $user";`)
	if err != nil {
		t.Fatal(err)
	}
	rt := swRT()
	in := New(rt, prog)
	in.SetGlobal("req", Int(7))
	in.SetGlobal("user", strV("alice"))
	out, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := string(out) // the next Run reuses the body's buffer
	if first != "request #7 by alice" {
		t.Errorf("output = %q", first)
	}
	// Presets persist across runs.
	out2, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(out2) != first {
		t.Errorf("second run differs: %q", out2)
	}
}

func TestCloseTagAndReenterPHP(t *testing.T) {
	got := runSrc(t, `<?php echo "a"; ?>HTML<?php echo "b";`)
	if got != "aHTML b"[0:1]+"HTML"+"b" && got != "aHTMLb" {
		t.Errorf("output = %q", got)
	}
}

func TestCommentsSkipped(t *testing.T) {
	got := runSrc(t, `<?php
// line comment
# hash comment
/* block
   comment */
echo "ok"; // trailing
`)
	if got != "ok" {
		t.Errorf("output = %q", got)
	}
}

func TestFloatsAndUnary(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<?php echo 1.25 * 4;`, "5"},
		{`<?php echo -1.5;`, "-1.5"},
		{`<?php $x = 2.0; $x *= 3; echo $x;`, "6"},
		{`<?php $x = 9; $x /= 2; echo $x;`, "4.5"},
		{`<?php $x = 5; echo --$x, $x;`, "44"},
		{`<?php $x = 5; echo ++$x;`, "6"},
	}
	for _, c := range cases {
		if got := runSrc(t, c.src); got != c.want {
			t.Errorf("%s => %q, want %q", c.src, got, c.want)
		}
	}
}

func TestStringIndexing(t *testing.T) {
	got := runSrc(t, `<?php $s = "abc"; echo $s[0], $s[2], $s[9];`)
	if got != "ac" {
		t.Errorf("output = %q", got)
	}
}

func TestMaxMinAbsIntvalStrval(t *testing.T) {
	got := runSrc(t, `<?php
echo max(3, 9, 1), min(3, 9, 1), "|";
echo abs(-4), abs(4), abs(-2.5), "|";
echo intval("12abc"), intval("-3"), intval(true), "|";
echo strval(15) . strval(false);
`)
	if got != "91|442.5|12-31|15" {
		t.Errorf("output = %q", got)
	}
}

func TestTruthiness(t *testing.T) {
	got := runSrc(t, `<?php
function b($v) { return $v ? "1" : "0"; }
echo b(0), b(1), b(""), b("0"), b("x"), b(0.0), b(2.5), b([]), b([1]), b(null);
`)
	if got != "0100101010" {
		t.Errorf("output = %q", got)
	}
}

func TestStrictEqualityOnArrays(t *testing.T) {
	got := runSrc(t, `<?php
$a = [1];
$b = $a;
$c = [1];
echo $a === $b ? "t" : "f";
echo $a === $c ? "t" : "f";
`)
	// Arrays are handles in this model: same handle strict-equal, fresh
	// literal not.
	if got != "tf" {
		t.Errorf("output = %q", got)
	}
}

func TestNumericStringArithmetic(t *testing.T) {
	got := runSrc(t, `<?php echo "5" + "3", "|", "5" . "3", "|", "2" * "4";`)
	if got != "8|53|8" {
		t.Errorf("output = %q", got)
	}
}

func TestArityErrors(t *testing.T) {
	for _, src := range []string{
		`<?php strtoupper();`,
		`<?php strtoupper("a", "b");`,
		`<?php strpos("a");`,
		`<?php count();`,
		`<?php max();`,
	} {
		if _, err := runScript(swRT(), src); err == nil {
			t.Errorf("%q should fail with an arity error", src)
		} else if !strings.Contains(err.Error(), "argument") {
			t.Errorf("%q error should mention arguments: %v", src, err)
		}
	}
}

func TestDivisionAndModuloByZero(t *testing.T) {
	// PHP8 throws; our model returns 0 rather than crashing the request.
	got := runSrc(t, `<?php echo 5 % 0, "|", 1 / 0, "|", 5.0 / 0;`)
	if got != "0|0|0" {
		t.Errorf("output = %q", got)
	}
}

func TestForeachValueOnlyForm(t *testing.T) {
	got := runSrc(t, `<?php foreach ([3, 1, 2] as $v) { echo $v; }`)
	if got != "312" {
		t.Errorf("output = %q", got)
	}
}

func TestForeachBreakInside(t *testing.T) {
	got := runSrc(t, `<?php
foreach ([1, 2, 3, 4] as $v) {
	if ($v == 3) { break; }
	echo $v;
}
`)
	if got != "12" {
		t.Errorf("output = %q", got)
	}
}

func TestReturnInsideLoopExitsFunction(t *testing.T) {
	got := runSrc(t, `<?php
function firstEven($a) {
	foreach ($a as $v) {
		if ($v % 2 == 0) { return $v; }
	}
	return -1;
}
echo firstEven([3, 7, 8, 9]), firstEven([1, 3]);
`)
	if got != "8-1" {
		t.Errorf("output = %q", got)
	}
}

func TestNestedFunctionDeclarationRejected(t *testing.T) {
	_, err := runScript(swRT(), `<?php
function outer() {
	function inner() { return 1; }
}
outer();
`)
	if err == nil {
		t.Errorf("nested function declarations should be rejected")
	}
}

func TestWhileIterationLimit(t *testing.T) {
	t.Skip("exercises the 10M iteration guard; too slow for the default suite")
}

func TestEchoMultipleWithCommas(t *testing.T) {
	got := runSrc(t, `<?php echo "a", 1, "b", 2.5;`)
	if got != "a1b2.5" {
		t.Errorf("output = %q", got)
	}
}

// TestTypeErrorNames pins the type names runtime errors print: they are
// script-visible output, independent of how a value is represented.
func TestTypeErrorNames(t *testing.T) {
	for src, want := range map[string]string{
		`<?php $x = 1; $x['k'];`:               "cannot index int64",
		`<?php $a = array(); $a[array()] = 1;`: "illegal array key type *vm.Array",
	} {
		if _, err := runScript(swRT(), src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one containing %q", src, err, want)
		}
	}
}
