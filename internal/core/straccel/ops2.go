package straccel

import "repro/internal/strlib"

// Additional stringop implementations sharing the same sub-blocks:
// equality rows detect the characters of interest, the priority encoder
// locates them, and the output/shifting logic splices the expansions.

// NL2BR implements stringop[nl2br] (PHP nl2br): equality rows match \r
// and \n; the shifting logic inserts "<br />" before each break. \r\n
// pairs receive one break, as in PHP: the wrap-around glue logic pairs
// them even across a block boundary. The bytes come from strlib's
// expansion kernel, as for the escaping ops.
func (a *Accel) NL2BR(subject []byte) []byte {
	a.stats.Ops++
	a.chargeBlocks(len(subject), 2)
	return a.sw.Expand(strlib.OpNL2BR, subject)
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
