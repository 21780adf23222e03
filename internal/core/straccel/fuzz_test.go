package straccel

import (
	"bytes"
	"testing"

	"repro/internal/strlib"
)

// The fuzz targets drive the bit-parallel datapath against two
// references at once: strlib for the result a PHP program sees, and the
// cell-at-a-time oracle (straccel_test.go) for the result and the full
// Stats struct. The sel byte picks the block width (the four ablation
// widths) and the matrix height (32 or 64 rows). Seed corpus:
// testdata/fuzz/<target>/; `make fuzz-smoke` runs each target of the
// Makefile's FUZZ_TARGETS list for ~10 s.

func fuzzPair(sel uint8) (*Accel, *oracle) {
	return pair(32<<(sel>>2&1), ablationWidths[sel&3])
}

func FuzzFindReplace(f *testing.F) {
	f.Fuzz(func(t *testing.T, subject, pattern, repl []byte, sel uint8) {
		a, o := fuzzPair(sel)
		var ref strlib.Lib
		inHW := len(pattern) > 0 && len(pattern) <= a.cfg.Rows

		pos, hw := a.Find(subject, pattern)
		if hw != inHW || pos != ref.Find(subject, pattern) {
			t.Fatalf("Find = %d hw=%v, strlib %d, want hw=%v", pos, hw, ref.Find(subject, pattern), inHW)
		}
		out, n, hw := a.Replace(subject, pattern, repl)
		want, wantN := ref.Replace(subject, pattern, repl)
		if hw != inHW || n != wantN || !bytes.Equal(out, want) {
			t.Fatalf("Replace = %q n=%d hw=%v, strlib %q n=%d", out, n, hw, want, wantN)
		}
		if !inHW {
			if st := a.Stats(); st.Bypasses != 2 || st.Blocks != 0 {
				t.Fatalf("bypassed ops touched the matrix: %+v", st)
			}
			return
		}
		if o.find(subject, pattern) != pos {
			t.Fatalf("Find = %d, oracle disagrees", pos)
		}
		if oOut, oN := o.replace(subject, pattern, repl); oN != n || !bytes.Equal(oOut, out) {
			t.Fatalf("Replace = %q n=%d, oracle %q n=%d", out, n, oOut, oN)
		}
		if a.Stats() != o.stats {
			t.Fatalf("stats\n got  %+v\n want %+v", a.Stats(), o.stats)
		}
		if a.col != [256]uint64{} {
			t.Fatal("column masks not cleared")
		}
	})
}

func FuzzTranslate(f *testing.F) {
	f.Fuzz(func(t *testing.T, subject, from, to, cut []byte, sel uint8) {
		a, o := fuzzPair(sel)
		var ref strlib.Lib
		if len(from) > len(to) {
			from = from[:len(to)]
		}
		to = to[:len(from)]
		if len(from) > a.cfg.Rows {
			from, to = from[:a.cfg.Rows], to[:a.cfg.Rows]
		}

		got, hw := a.Translate(subject, from, to)
		if want := o.translate(subject, from, to); !hw || !bytes.Equal(got, want) {
			t.Fatalf("Translate = %q hw=%v, oracle %q", got, hw, want)
		}
		if want := ref.Translate(subject, from, to); !bytes.Equal(got, want) {
			t.Fatalf("Translate = %q, strlib %q", got, want)
		}

		if got, want := a.Trim(subject, cut), o.trim(subject, cut); !bytes.Equal(got, want) {
			t.Fatalf("Trim(%q) = %q, oracle %q", cut, got, want)
		}
		if got, want := a.Trim(subject, cutset), ref.Trim(subject); !bytes.Equal(got, want) {
			t.Fatalf("Trim = %q, strlib %q", got, want)
		}
		o.trim(subject, cutset)

		if a.Stats() != o.stats {
			t.Fatalf("stats\n got  %+v\n want %+v", a.Stats(), o.stats)
		}
		if a.col != [256]uint64{} {
			t.Fatal("column masks not cleared")
		}
	})
}

// FuzzEscape drives HTMLSpecialChars and AddSlashes — the two ops on the
// shared expansion kernel — against strlib, the per-byte oracle loops and
// the oracle's Stats (checkEscape, straccel_test.go).
func FuzzEscape(f *testing.F) {
	f.Fuzz(func(t *testing.T, subject []byte, sel uint8) {
		a, o := fuzzPair(sel)
		checkEscape(t, a, o, subject)
	})
}
