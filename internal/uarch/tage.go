// Package uarch implements the microarchitectural models behind the
// paper's Section 2 characterization: a TAGE branch predictor, a
// set-associative branch target buffer, a multi-level cache hierarchy
// with next-line prefetchers, and an analytical pipeline throughput model
// for in-order and out-of-order cores. A trace synthesizer generates
// instruction streams with the statistical character the paper reports
// for real-world PHP applications (22% branches, heavily data-dependent;
// hundreds of compact leaf functions) and for SPEC-like workloads.
package uarch

// TAGE is a tagged-geometric-history branch predictor (Seznec, the
// paper's §2 configuration with a 32KB storage budget). It implements
// the standard provider/alternate prediction, useful counters, and
// allocate-on-mispredict policy.
type TAGE struct {
	base []int8 // bimodal base predictor, 2-bit counters

	tables []tageTable
	ghist  uint64 // global history (newest bit = LSB)

	// prediction bookkeeping between Predict and Update
	provider    int // table index of provider, -1 = base
	providerIdx uint32
	altPred     bool
	predTaken   bool

	useAltOnNA int8 // use-alt-on-newly-allocated counter

	// Stats
	Lookups     int64
	Mispredicts int64
}

type tageTable struct {
	histLen int
	tagBits uint32
	entries []tageEntry
	mask    uint32
}

type tageEntry struct {
	ctr    int8 // 3-bit signed counter
	tag    uint16
	useful int8
}

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	BaseEntries  int   // bimodal table entries
	TableEntries int   // entries per tagged table
	HistLens     []int // geometric history lengths
}

// DefaultTAGEConfig approximates a 32KB TAGE: 16K-entry bimodal plus six
// tagged tables of 2K entries with geometric histories.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseEntries:  16384,
		TableEntries: 2048,
		HistLens:     []int{4, 9, 18, 35, 70, 130},
	}
}

// NewTAGE builds a predictor.
func NewTAGE(cfg TAGEConfig) *TAGE {
	if cfg.BaseEntries <= 0 {
		cfg = DefaultTAGEConfig()
	}
	t := &TAGE{base: make([]int8, cfg.BaseEntries)}
	for i := range t.base {
		t.base[i] = 1 // weakly not-taken... start weakly taken below
	}
	for _, hl := range cfg.HistLens {
		t.tables = append(t.tables, tageTable{
			histLen: hl,
			tagBits: 11,
			entries: make([]tageEntry, cfg.TableEntries),
			mask:    uint32(cfg.TableEntries - 1),
		})
	}
	return t
}

// foldHistory folds histLen bits of global history into width bits.
func (t *TAGE) foldHistory(histLen, width int) uint32 {
	var f uint32
	h := t.ghist
	for bits := 0; bits < histLen; bits += width {
		take := width
		if histLen-bits < take {
			take = histLen - bits
		}
		f ^= uint32(h) & ((1 << uint(take)) - 1)
		h >>= uint(take)
	}
	return f
}

func (t *TAGE) index(ti int, pc uint64) uint32 {
	tbl := &t.tables[ti]
	h := t.foldHistory(tbl.histLen, 11)
	return (uint32(pc>>2) ^ uint32(pc>>13) ^ h ^ uint32(ti)*0x9e37) & tbl.mask
}

func (t *TAGE) tag(ti int, pc uint64) uint16 {
	tbl := &t.tables[ti]
	h := t.foldHistory(tbl.histLen, int(tbl.tagBits))
	return uint16((uint32(pc>>2) ^ h*3 ^ uint32(ti)*0x811c) & ((1 << tbl.tagBits) - 1))
}

func (t *TAGE) baseIndex(pc uint64) int {
	return int(pc>>2) & (len(t.base) - 1)
}

// Predict returns the predicted direction for the branch at pc.
func (t *TAGE) Predict(pc uint64) bool {
	t.Lookups++
	t.provider = -1
	alt := -1
	for i := len(t.tables) - 1; i >= 0; i-- {
		idx := t.index(i, pc)
		e := &t.tables[i].entries[idx]
		if e.tag == t.tag(i, pc) {
			if t.provider < 0 {
				t.provider = i
				t.providerIdx = idx
			} else if alt < 0 {
				alt = i
			}
		}
	}
	basePred := t.base[t.baseIndex(pc)] >= 2
	t.altPred = basePred
	if alt >= 0 {
		e := &t.tables[alt].entries[t.index(alt, pc)]
		t.altPred = e.ctr >= 0
	}
	if t.provider >= 0 {
		e := &t.tables[t.provider].entries[t.providerIdx]
		// Newly allocated, weak entries may defer to the alternate.
		weak := e.ctr == 0 || e.ctr == -1
		if weak && e.useful == 0 && t.useAltOnNA >= 0 {
			t.predTaken = t.altPred
		} else {
			t.predTaken = e.ctr >= 0
		}
		return t.predTaken
	}
	t.predTaken = basePred
	return t.predTaken
}

// Update trains the predictor with the branch outcome. Call immediately
// after Predict for the same branch.
func (t *TAGE) Update(pc uint64, taken bool) {
	if t.predTaken != taken {
		t.Mispredicts++
	}
	// Provider update.
	if t.provider >= 0 {
		e := &t.tables[t.provider].entries[t.providerIdx]
		provPred := e.ctr >= 0
		if provPred != t.altPred {
			if provPred == taken && e.useful < 3 {
				e.useful++
			} else if provPred != taken && e.useful > 0 {
				e.useful--
			}
		}
		if weakNA := (e.ctr == 0 || e.ctr == -1) && e.useful == 0; weakNA {
			if t.altPred == taken && t.useAltOnNA < 7 {
				t.useAltOnNA++
			} else if t.altPred != taken && t.useAltOnNA > -8 {
				t.useAltOnNA--
			}
		}
		e.ctr = satUpdate3(e.ctr, taken)
	} else {
		bi := t.baseIndex(pc)
		t.base[bi] = satUpdate2(t.base[bi], taken)
	}

	// Allocate on misprediction in a longer-history table.
	if t.predTaken != taken && t.provider < len(t.tables)-1 {
		allocated := false
		for i := t.provider + 1; i < len(t.tables); i++ {
			idx := t.index(i, pc)
			e := &t.tables[i].entries[idx]
			if e.useful == 0 {
				e.tag = t.tag(i, pc)
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				e.useful = 0
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay useful bits so future allocations succeed.
			for i := t.provider + 1; i < len(t.tables); i++ {
				idx := t.index(i, pc)
				if e := &t.tables[i].entries[idx]; e.useful > 0 {
					e.useful--
				}
			}
		}
	}

	// History update.
	t.ghist = t.ghist<<1 | b2u(taken)
}

// MPKI returns mispredictions per kilo-instruction given the total
// instruction count the branch stream was drawn from.
func (t *TAGE) MPKI(instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(t.Mispredicts) / float64(instructions)
}

func satUpdate3(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

func satUpdate2(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
