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

// chargeBlocks accounts a whole-subject streaming pass with nRows active.
func (a *Accel) chargeBlocks(n, nRows int) {
	for rem := n; ; {
		blk := a.cfg.BlockBytes
		if rem < blk {
			blk = rem
		}
		a.charge(blk, nRows)
		rem -= blk
		if rem <= 0 {
			break
		}
	}
}

// AddSlashes implements stringop[addslashes]: equality rows for quote,
// double quote, backslash, and NUL; output logic emits the escape pairs.
func (a *Accel) AddSlashes(subject []byte) []byte {
	return a.expand(strlib.OpAddSlashes, subject)
}

// ConfigureRows loads an explicit matching-matrix configuration — the
// strreadconfig path for complex functions whose rows are "large and may
// not be practical or feasible to pass as a source operand" (§4.6). The
// rows persist until the next LoadConfig/ConfigureRows.
func (a *Accel) ConfigureRows(rows MatrixConfig) { a.LoadConfig(rows) }

// EqRow builds an equality row with a substitution output.
func EqRow(match, sub byte) MatrixConfig {
	return MatrixConfig{rows: []row{{kind: rowEq, eq: match, sub: sub}}}
}

// RangeRow builds an inequality (range) row with a substitution delta.
func RangeRow(lo, hi byte, sub byte) MatrixConfig {
	return MatrixConfig{rows: []row{{kind: rowRange, lo: lo, hi: hi, sub: sub}}}
}

// Merge concatenates matrix configurations into one row set.
func Merge(cfgs ...MatrixConfig) MatrixConfig {
	var out MatrixConfig
	for _, c := range cfgs {
		out.rows = append(out.rows, c.rows...)
	}
	return out
}

// RowCount returns the number of configured rows.
func (m MatrixConfig) RowCount() int { return len(m.rows) }

// ApplyConfigured runs the currently configured rows over the subject:
// any byte matching a row is replaced by the row's substitution output
// (equality rows) or shifted by the substitution delta (range rows).
// This is the generic datapath behind translate-style complex functions.
// It returns false (software fallback) when no rows are configured or
// the configuration exceeds the matrix.
func (a *Accel) ApplyConfigured(subject []byte) ([]byte, bool) {
	if len(a.cur.rows) == 0 || len(a.cur.rows) > a.cfg.Rows {
		a.stats.Bypasses++
		return nil, false
	}
	a.stats.Ops++
	return a.substitute(subject, &a.xlat, len(a.cur.rows)), true
}
