package obs

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzParsePromText feeds arbitrary bytes to the parser a reader of a
// server's /metrics body runs. It must never
// panic, and whatever it accepts must survive a round trip: written back
// out in the Encoder's format (writeFamilies), it parses to the same
// families, with NaN equal to NaN.
func FuzzParsePromText(f *testing.F) {
	for _, seed := range []string{
		"",
		"# HELP phpserve_requests_total Requests served.\n# TYPE phpserve_requests_total counter\nphpserve_requests_total{app=\"wordpress\"} 12\n",
		"# TYPE lat histogram\nlat_bucket{le=\"0.1\"} 3\nlat_bucket{le=\"+Inf\"} 4\nlat_sum 0.25\nlat_count 4\n",
		"up NaN\ndown -Inf 1700000000\n",
		"esc{v=\"a\\\"b\\\\c\\nd\"} 1\n",
		"# HELP h back\\\\slash and \\n newline\n",
		"# TYPE t \n",
		"{a=\"b\"} 1\n",
		"x{y=\"unterminated\n",
		"x{=\"\",,} 0x1p-2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fams, err := ParsePromText(bytes.NewReader(body))
		if err != nil {
			return
		}
		var out bytes.Buffer
		writeFamilies(&out, fams)
		again, err := ParsePromText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of the written families failed: %v\ninput %q\nwritten %q", err, body, out.Bytes())
		}
		if !sameFamilies(fams, again) {
			t.Fatalf("round trip changed the families\ninput %q\nwritten %q", body, out.Bytes())
		}
	})
}

// writeFamilies writes parsed families in the Encoder's text format:
// each family's # HELP and # TYPE header, then its samples.
func writeFamilies(w *bytes.Buffer, fams []*MetricFamily) {
	for _, f := range fams {
		w.WriteString("# HELP " + f.Name + " " + escapeHelp(f.Help) + "\n")
		w.WriteString("# TYPE " + f.Name + " " + f.Type + "\n")
		for _, s := range f.Samples {
			b := appendLabelBlock([]byte(s.Name), s.Labels)
			b = appendValue(append(b, ' '), s.Value)
			w.Write(append(b, '\n'))
		}
	}
}

func sameFamilies(a, b []*MetricFamily) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for j, sa := range fa.Samples {
			sb := fb.Samples[j]
			if sa.Name != sb.Name || !slices.Equal(sa.Labels, sb.Labels) {
				return false
			}
			if sa.Value != sb.Value && !(math.IsNaN(sa.Value) && math.IsNaN(sb.Value)) {
				return false
			}
		}
	}
	return true
}
