package straccel

import "repro/internal/strlib"

// Additional stringop implementations sharing the same sub-blocks:
// equality rows detect the characters of interest, the priority encoder
// locates them, and the output/shifting logic splices the expansions.

// NL2BR implements stringop[nl2br] (PHP nl2br): equality rows match \r
// and \n; the shifting logic inserts "<br />" before each break. \r\n
// pairs receive one break, as in PHP.
func (a *Accel) NL2BR(subject []byte) []byte {
	a.stats.Ops++
	a.chargeBlocks(len(subject), 2)
	breaks := 0
	for i := 0; i < len(subject); i++ {
		if subject[i] == '\n' || subject[i] == '\r' {
			breaks++
			if subject[i] == '\r' && i+1 < len(subject) && subject[i+1] == '\n' {
				i++
			}
		}
	}
	out := a.buf(len(subject) + breaks*len("<br />"))
	for i := 0; i < len(subject); i++ {
		c := subject[i]
		if c == '\r' || c == '\n' {
			out = append(out, "<br />"...)
			out = append(out, c)
			// The wrap-around glue logic pairs a \r\n even across a block
			// boundary, so the pair is handled uniformly here.
			if c == '\r' && i+1 < len(subject) && subject[i+1] == '\n' {
				out = append(out, '\n')
				i++
			}
			continue
		}
		out = append(out, c)
	}
	return out
}

// chargeBlocks accounts a streaming pass over n bytes with nRows active:
// one charge per block entered, summed in closed form (an empty subject
// still enters one zero-length block).
func (a *Accel) chargeBlocks(n, nRows int) {
	a.stats.Blocks += int64(max((n+a.cfg.BlockBytes-1)/a.cfg.BlockBytes, 1))
	a.stats.Bytes += int64(n)
	a.stats.ActiveCells += int64(n * nRows)
	a.stats.GatedCells += int64(n * (a.cfg.Rows - nRows))
}

// AddSlashes implements stringop[addslashes]: equality rows for quote,
// double quote, backslash, and NUL; output logic emits the escape pairs.
func (a *Accel) AddSlashes(subject []byte) []byte {
	return a.expand(strlib.OpAddSlashes, subject)
}

// RangeRow builds an inequality (range) row with a substitution delta.
func RangeRow(lo, hi byte, sub byte) MatrixConfig {
	return MatrixConfig{rows: []row{{lo: lo, hi: hi, sub: sub}}}
}
