package uarch

// Cache is one set-associative cache level with LRU replacement and a
// next-line prefetcher, matching the paper's "aggressive memory
// system with prefetchers at every cache level".
type Cache struct {
	lineBits uint
	sets     int
	ways     int
	tags     [][]uint64
	lru      [][]uint64
	clock    uint64
	next     *Cache // next level (nil = memory)

	Accesses   int64
	Misses     int64
	Prefetches int64
}

// NewCache builds a cache of size bytes with the given line size and
// associativity, forwarding misses to next (nil for memory).
func NewCache(size, lineSize, ways int, next *Cache) *Cache {
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	sets := size / lineSize / ways
	if sets <= 0 {
		sets = 1
	}
	c := &Cache{lineBits: lineBits, sets: sets, ways: ways, next: next}
	c.tags = make([][]uint64, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.lru[i] = make([]uint64, ways)
	}
	return c
}

// Access touches addr, recursing into lower levels on a miss. It returns
// true on hit at this level.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	hit := c.touch(line, true)
	if !hit {
		c.Misses++
		if c.next != nil {
			c.next.Access(addr)
		}
		c.Prefetches++
		c.touch(line+1, false)
		if c.next != nil && !c.present(line+1) {
			// Prefetch fill from below without polluting miss stats.
			c.next.touch((line+1)<<c.lineBits>>c.next.lineBits, false)
		}
	}
	return hit
}

// touch looks up and installs a line. countAccess controls whether the
// access statistics are charged (prefetches are not).
func (c *Cache) touch(line uint64, countAccess bool) bool {
	if countAccess {
		c.Accesses++
	}
	c.clock++
	s := int(line % uint64(c.sets))
	tag := line/uint64(c.sets) + 1 // +1 so 0 means invalid
	for w := 0; w < c.ways; w++ {
		if c.tags[s][w] == tag {
			c.lru[s][w] = c.clock
			return true
		}
	}
	victim := 0
	for w := 1; w < c.ways; w++ {
		if c.lru[s][w] < c.lru[s][victim] {
			victim = w
		}
	}
	c.tags[s][victim] = tag
	c.lru[s][victim] = c.clock
	return false
}

func (c *Cache) present(line uint64) bool {
	s := int(line % uint64(c.sets))
	tag := line/uint64(c.sets) + 1
	for w := 0; w < c.ways; w++ {
		if c.tags[s][w] == tag {
			return true
		}
	}
	return false
}

// MPKI returns misses per kilo-instruction.
func (c *Cache) MPKI(instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(c.Misses) / float64(instructions)
}

// Hierarchy is the simulated L1I/L1D/shared-L2 memory system.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// HierarchyConfig sizes the memory system.
type HierarchyConfig struct {
	L1ISize, L1DSize, L2Size int
	LineSize                 int
	L1Ways, L2Ways           int
}

// DefaultHierarchyConfig matches the simulated Xeon-like server core.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1ISize: 32 << 10, L1DSize: 32 << 10, L2Size: 1 << 20,
		LineSize: 64, L1Ways: 8, L2Ways: 16,
	}
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.LineSize == 0 {
		cfg = DefaultHierarchyConfig()
	}
	l2 := NewCache(cfg.L2Size, cfg.LineSize, cfg.L2Ways, nil)
	return &Hierarchy{
		L1I: NewCache(cfg.L1ISize, cfg.LineSize, cfg.L1Ways, l2),
		L1D: NewCache(cfg.L1DSize, cfg.LineSize, cfg.L1Ways, l2),
		L2:  l2,
	}
}
