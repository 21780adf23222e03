package php

import "testing"

// TestLooseEqCompareConsistency is the regression matrix for the
// numeric-string fallthrough bug: "10" == "1e1" used to be false while
// compare() ordered the same pair numerically ("10" <= "1e1" true), so
// == and the relational operators disagreed. PHP 8 semantics: a pair of
// numeric strings compares numerically everywhere.
func TestLooseEqCompareConsistency(t *testing.T) {
	cases := []struct {
		name    string
		l, r    interface{}
		eq      bool
		cmpSign int // sign of compare(l, r): -1, 0, +1
	}{
		// Numeric-string pairs: numeric comparison on both paths.
		{"numstr-eq-exp", "10", "1e1", true, 0},
		{"numstr-eq-float", "1.5", "1.50", true, 0},
		{"numstr-eq-sign", "+5", "5", true, 0},
		{"numstr-lt", "9", "10", false, -1},
		{"numstr-gt", "2e2", "30", false, 1},
		// Number vs numeric string: numeric.
		{"int-numstr", int64(10), "1e1", true, 0},
		{"float-numstr", 1.5, "1.5", true, 0},
		{"int-numstr-lt", int64(9), "10", false, -1},
		// Number vs non-numeric string: never loosely equal (PHP 8
		// compares them as strings); compare() coerces the string through
		// toFloat (0), so 10 > "10abc" — unequal on both paths.
		{"int-str", int64(10), "10abc", false, 1},
		{"int-str-eq", int64(10), "10", true, 0},
		// Non-numeric string pairs: plain string semantics.
		{"str-eq", "abc", "abc", true, 0},
		{"str-lt", "abc", "abd", false, -1},
		// Mixed-case sanity: one numeric string, one not.
		{"numstr-str", "10", "10abc", false, -1},
		// Bools and nil keep truthy semantics.
		{"bool-int", true, int64(1), true, 0},
		{"nil-zero", nil, int64(0), true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, r := testValue(tc.l), testValue(tc.r)
			if got := looseEq(l, r); got != tc.eq {
				t.Errorf("looseEq(%#v, %#v) = %v, want %v", tc.l, tc.r, got, tc.eq)
			}
			if got := looseEq(r, l); got != tc.eq {
				t.Errorf("looseEq(%#v, %#v) = %v, want %v (symmetry)", tc.r, tc.l, got, tc.eq)
			}
			c := compare(l, r)
			sign := 0
			if c < 0 {
				sign = -1
			} else if c > 0 {
				sign = 1
			}
			if sign != tc.cmpSign {
				t.Errorf("compare(%#v, %#v) sign = %d, want %d", tc.l, tc.r, sign, tc.cmpSign)
			}
			// The consistency requirement itself: == iff compare says equal.
			if (sign == 0) != tc.eq {
				t.Errorf("looseEq/compare disagree for (%#v, %#v): eq=%v cmp=%d", tc.l, tc.r, tc.eq, sign)
			}
		})
	}
}

// TestLooseEqScriptLevel checks the fix end to end through the
// interpreter's == and <= operators.
func TestLooseEqScriptLevel(t *testing.T) {
	out := runSrc(t, `<?php
if ("10" == "1e1") { echo "eq "; } else { echo "ne "; }
if ("10" <= "1e1") { echo "le"; } else { echo "gt"; }
`)
	if out != "eq le" {
		t.Fatalf("numeric-string ==/<= mismatch: got %q, want %q", out, "eq le")
	}
}

// testValue converts a Go literal of the table to its Value.
func testValue(x interface{}) Value {
	switch x := x.(type) {
	case bool:
		return boolV(x)
	case int64:
		return Int(x)
	case float64:
		return floatV(x)
	case string:
		return strV(x)
	}
	return null
}
