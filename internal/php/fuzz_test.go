package php

import (
	"strings"
	"testing"

	"repro/internal/vm"
)

// fuzzScript takes $s through concatenation, .=, every string builtin, a
// preg_replace chain and dynamic array keys. Nothing after the chain
// depends on where the regex accelerator pads.
const fuzzScript = `<?php
$t = $s . "|" . strlen($s) . "|";
$t .= strtoupper($s) . strtolower($s) . trim($s) . nl2br($s) . addslashes($s) . htmlspecialchars($s);
$t .= str_replace("a", "b", $s) . strpos($s . "x", "x") . strcmp($s, "m") . strtr($s, "ab", "ba");
$t .= substr($s, 1, 3) . str_repeat($s, 2) . implode(",", explode(",", $s)) . sprintf("<%s>%d", $s, $s);
$t .= strval($s) . intval($s) . count(preg_split('/,/', $s)) . preg_match('/"/', $s) . preg_match_all('/</', $t);
$t = preg_replace('/"/', "&#8221;", $t);
$t = preg_replace('/\n/', "<br />", $t);
$t = preg_replace('/</', "&lt;", $t);
$a = [$s => $t, "k" . $s => strlen($s)];
$a[$s . $s] = $s;
foreach ($a as $k => $v) { echo $k, "=", $v, ";"; }
echo isset($a[$s]) ? "set" : "unset", array_key_exists("k" . $s, $a) ? "+" : "-";
`

// FuzzScriptStrings feeds arbitrary bytes as $s through fuzzScript. The
// tree-walker and the bytecode engine must render identical bytes, twice in
// a row on the same engine (the second render reuses the request arena
// the first one's strings lived in), and the accelerated runtime must
// render the software runtime's bytes modulo the whitespace padding
// vm.Chain documents.
func FuzzScriptStrings(f *testing.F) {
	prog, err := Parse(fuzzScript)
	if err != nil {
		f.Fatal(err)
	}
	comp, err := Compile(prog)
	if err != nil {
		f.Fatal(err)
	}
	// $s is data, not code: every input runs this one program.
	mustVerify(f, comp)
	// "" found a hash-table coherence bug: the store $a[$s . $s] hits an
	// inline cache and goes to memory, and the table dropped the dirty
	// pair $a[$s] instead of writing it back, so foreach order changed on
	// the second render.
	for _, seed := range []string{"", "a", "hello, world", "\"quoted\"\n<b>it's</b>", "a,b,,c", "0", "12abc", " \t\x00\xff\r\n"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		if len(s) > 1024 {
			t.Skip()
		}
		render := func(rt *vm.Runtime, mode TierMode) string {
			in := New(rt, prog)
			if err := in.EnableTier(comp, mode); err != nil {
				t.Fatal(err)
			}
			in.SetGlobal("s", strV(string(s)))
			var outs [2]string
			for i := range outs {
				out, err := in.Run()
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				outs[i] = string(out)
			}
			if outs[0] != outs[1] {
				t.Fatalf("%s: second render differs:\n first  %q\n second %q", mode, outs[0], outs[1])
			}
			return outs[0]
		}
		sw, hw := render(swRT(), TierInterp), render(hwRT(), TierInterp)
		if bc := render(swRT(), TierBytecode); bc != sw {
			t.Fatalf("bytecode/sw diverges:\n interp %q\n got    %q", sw, bc)
		}
		if bc := render(hwRT(), TierBytecode); bc != hw {
			t.Fatalf("bytecode/hw diverges:\n interp %q\n got    %q", hw, bc)
		}
		if strings.ReplaceAll(hw, " ", "") != strings.ReplaceAll(sw, " ", "") {
			t.Fatalf("accelerated output differs beyond padding:\n sw %q\n hw %q", sw, hw)
		}
	})
}
