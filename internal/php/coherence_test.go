package php

import (
	"testing"
)

// These are regression tests for hardware hash table coherence: a
// dynamic-key SET buffers the pair dirty in the accelerator without
// updating the software map (§4.2), so every software-side read of the
// map — an IC-specialized static access, count()'s size read, array
// truthiness, the append auto-index watermark — must snoop or flush the
// table first. Each case once diverged between swRT and hwRT.
func TestHardwareCoherence(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		// array_merge inserts string keys with dynamic key names; the
		// static count()/$m["k"] reads must see the buffered pairs.
		{"merge-then-static-read", `<?php
$m = array_merge([1, 2], ["k" => "v"], [3]);
echo count($m), " ", $m["k"], " ", $m[2];
`},
		// A dynamic-key store followed by a static read of the same key.
		{"dynamic-store-static-read", `<?php
$a = [];
$keys = ["alpha", "beta"];
foreach ($keys as $k) { $a[$k] = strtoupper($k); }
echo $a["alpha"], " ", $a["beta"], " ", count($a);
`},
		// A static store after a dynamic store of the same key must not
		// leave a stale hardware copy for a later dynamic read.
		{"static-store-after-dynamic", `<?php
$a = [];
$k = "x";
$a[$k] = "old";
$a["x"] = "new";
$probe = "x";
echo $a[$probe], " ", $a["x"];
`},
		// Truthiness of an array built entirely through dynamic keys.
		{"dynamic-array-truthiness", `<?php
$a = [];
$k = "only";
$a[$k] = 1;
if ($a) { echo "nonempty"; } else { echo "empty"; }
`},
		// The append watermark must advance past an int key inserted
		// with a dynamic key name.
		{"append-after-dynamic-int-key", `<?php
$a = [];
$i = 5;
$a[$i] = "x";
$a[] = "y";
foreach ($a as $k => $v) { echo $k, "=", $v, " "; }
`},
		// extract() is the paper's canonical dynamic-key writer; isset
		// and static reads on the target must see its stores.
		{"extract-then-static-read", `<?php
$vars = ["title" => "hi", "n" => 3];
$sym = [];
extract($vars);
echo $title, " ", $n;
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := runScript(swRT(), tc.src)
			if err != nil {
				t.Fatalf("sw: %v", err)
			}
			hw, err := runScript(hwRT(), tc.src)
			if err != nil {
				t.Fatalf("hw: %v", err)
			}
			if string(sw) != string(hw) {
				t.Errorf("sw/hw diverge:\n sw %q\n hw %q", sw, hw)
			}
		})
	}
}
