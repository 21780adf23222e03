package uarch

// BTB is a set-associative branch target buffer with LRU replacement,
// configured like the one the paper simulates ("resembles the BTB found
// in modern Intel server cores with 4K entries and 2-way set
// associativity", swept up to 64K entries for Fig. 2a).
type BTB struct {
	sets  int
	ways  int
	tags  [][]uint64
	tgt   [][]uint64
	lru   [][]uint64
	clock uint64

	Lookups int64
	Hits    int64
}

// NewBTB builds a BTB with the given total entries and associativity.
func NewBTB(entries, ways int) *BTB {
	if ways <= 0 {
		ways = 2
	}
	sets := entries / ways
	if sets <= 0 {
		sets = 1
	}
	b := &BTB{sets: sets, ways: ways}
	b.tags = make([][]uint64, sets)
	b.tgt = make([][]uint64, sets)
	b.lru = make([][]uint64, sets)
	for i := 0; i < sets; i++ {
		b.tags[i] = make([]uint64, ways)
		b.tgt[i] = make([]uint64, ways)
		b.lru[i] = make([]uint64, ways)
	}
	return b
}

func (b *BTB) set(pc uint64) int {
	return int((pc >> 2) % uint64(b.sets))
}

// Lookup predicts the target of the branch at pc. It returns the
// predicted target and whether the entry was present with the correct
// target recorded.
func (b *BTB) Lookup(pc, actualTarget uint64) bool {
	b.Lookups++
	b.clock++
	s := b.set(pc)
	for w := 0; w < b.ways; w++ {
		if b.tags[s][w] == pc && b.tags[s][w] != 0 {
			b.lru[s][w] = b.clock
			if b.tgt[s][w] == actualTarget {
				b.Hits++
				return true
			}
			// Target mispredict: update in place.
			b.tgt[s][w] = actualTarget
			return false
		}
	}
	// Miss: install, evicting LRU.
	victim := 0
	for w := 1; w < b.ways; w++ {
		if b.lru[s][w] < b.lru[s][victim] {
			victim = w
		}
	}
	b.tags[s][victim] = pc
	b.tgt[s][victim] = actualTarget
	b.lru[s][victim] = b.clock
	return false
}

// HitRate returns the fraction of lookups that hit with correct targets.
func (b *BTB) HitRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Hits) / float64(b.Lookups)
}
