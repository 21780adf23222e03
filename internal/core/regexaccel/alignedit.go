package regexaccel

import (
	"repro/internal/regex"
	"repro/internal/strlib"
)

// ShadowReplace performs a regexp replacement under an existing hint
// vector and keeps the HV usable for the remaining shadow regexps by
// whitespace padding (§4.5): the HTML specification allows an arbitrary
// number of linear white spaces in the response body, so each edited
// segment group is padded with spaces up to a segment boundary. Segment
// boundaries of unedited content therefore stay aligned with the HV, and
// only the bits of edited segments are recomputed.
//
// It returns the edited content, the updated HV (valid for the new
// content), the number of replacements, and the engine scanned-byte cost
// of the underlying shadow scan. Apart from the inserted padding spaces,
// the result text equals an ordinary ReplaceAll.
func (a *Accel) ShadowReplace(re *regex.Regex, content []byte, repl []byte, hv *HV) ([]byte, *HV, int, int) {
	ms, examined := a.shadowAppend(a.shadowMS[:0], re, content, hv)
	a.shadowMS = ms
	if len(ms) == 0 {
		if hv != nil && hv.Covers(len(content)) {
			return content, hv, 0, examined
		}
		bits := strlib.ClassScanRef(content, a.cfg.SegSize)
		return content, &HV{bits: bits, segSize: a.cfg.SegSize, n: len(content)}, 0, examined
	}
	seg := a.cfg.SegSize
	nseg := (len(content) + seg - 1) / seg

	// Mark segments touched by any match (reused scratch).
	if cap(a.touched) < nseg {
		a.touched = make([]bool, nseg)
	}
	touched := a.touched[:nseg]
	clear(touched)
	for _, m := range ms {
		lo := m.Start / seg
		hi := lo
		if m.End > m.Start {
			hi = (m.End - 1) / seg
		}
		for s := lo; s <= hi && s < nseg; s++ {
			touched[s] = true
		}
	}

	// Worst case the output holds the content, every replacement, and
	// up to a segment of padding per match group.
	out := a.buf(len(content) + len(ms)*(len(repl)+seg))
	flags := a.flags[:0]
	mi := 0
	for s := 0; s < nseg; {
		lo := s * seg
		if !touched[s] {
			hi := lo + seg
			if hi > len(content) {
				hi = len(content)
			}
			out = append(out, content[lo:hi]...)
			flags = append(flags, hv != nil && hv.Covers(len(content)) && hv.flagged(s))
			s++
			continue
		}
		// Extend over the contiguous touched group.
		e := s
		for e+1 < nseg && touched[e+1] {
			e++
		}
		hi := (e + 1) * seg
		if hi > len(content) {
			hi = len(content)
		}
		// Apply the replacements inside [lo, hi) (reused scratch).
		edited := a.edited[:0]
		prev := lo
		for mi < len(ms) && ms[mi].Start < hi {
			m := ms[mi]
			edited = append(edited, content[prev:m.Start]...)
			edited = append(edited, repl...)
			prev = m.End
			mi++
		}
		edited = append(edited, content[prev:hi]...)
		// Whitespace padding to the next segment boundary keeps all later
		// boundaries aligned with the original HV. Only interior groups
		// are padded, not a trailing partial.
		if pad := (seg - len(edited)%seg) % seg; pad > 0 && hi == (e+1)*seg {
			n := len(edited)
			edited = append(edited, make([]byte, pad)...)
			for i := n; i < len(edited); i++ {
				edited[i] = ' '
			}
		}
		out = append(out, edited...)
		// Recompute flags for just the edited group's segments.
		sub := strlib.ClassScanRef(edited, seg)
		for i := 0; i < (len(edited)+seg-1)/seg; i++ {
			flags = append(flags, sub[i/64]&(1<<uint(i%64)) != 0)
		}
		a.edited = edited
		s = e + 1
	}
	a.flags = flags

	bits := make([]uint64, (len(flags)+63)/64)
	for i, f := range flags {
		if f {
			bits[i/64] |= 1 << uint(i%64)
		}
	}
	return out, &HV{bits: bits, segSize: seg, n: len(out)}, len(ms), examined
}
