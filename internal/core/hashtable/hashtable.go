// Package hashtable implements the paper's hardware hash table
// accelerator (§4.2): a small associative structure that serves both GET
// and SET requests entirely in hardware for the short-lived, small-keyed
// hash maps PHP applications access with dynamic key names.
//
// Design points reproduced from the paper:
//
//   - 512 entries by default; a lookup hashes the combination of the hash
//     map's base address and the key, then examines a window of 4
//     consecutive entries in parallel (constant 1-cycle access).
//   - Keys of at most 24 bytes are stored inline in the table (about 95%
//     of keys in the studied applications); longer keys bypass to
//     software.
//   - Each entry carries valid and dirty bits and an LRU timestamp.
//     Replacement prefers invalid entries, then clean entries, and only
//     then the LRU dirty entry, whose writeback needs software help.
//   - SET inserts silently without updating memory; the Reverse
//     Translation Table (RTT) tracks which table entries belong to each
//     map (circular buffer of back pointers with a write pointer) so
//     Free invalidates them without scanning, and foreach can write the
//     map back in insertion order.
//   - Writebacks go only to the software map's ordered table, carrying
//     the entry's reserved sequence position so the foreach insertion-
//     order invariant holds even across evictions and re-insertions.
package hashtable

import (
	"math/bits"

	"repro/internal/hashmap"
)

// Config sizes the accelerator.
type Config struct {
	// Entries is the hash table capacity (paper: 512), rounded up to a
	// power of two so a lookup indexes with a mask.
	Entries int
	// ProbeWindow is how many consecutive entries one lookup examines in
	// parallel (paper: 4).
	ProbeWindow int
	// MaxKeyBytes is the widest key stored inline (paper: 24).
	MaxKeyBytes int
	// RTTPointers is each RTT entry's circular buffer capacity. When a
	// map has more live table entries than this, the RTT entry overflows
	// and Free/foreach fall back to a table scan.
	RTTPointers int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{Entries: 512, ProbeWindow: 4, MaxKeyBytes: 24, RTTPointers: 64}
}

func (c Config) sanitized() Config {
	if c.Entries <= 0 {
		c.Entries = 512
	}
	c.Entries = 1 << bits.Len(uint(c.Entries-1))
	if c.ProbeWindow <= 0 {
		c.ProbeWindow = 4
	}
	if c.ProbeWindow > c.Entries {
		c.ProbeWindow = c.Entries
	}
	if c.MaxKeyBytes <= 0 {
		c.MaxKeyBytes = 24
	}
	if c.RTTPointers <= 0 {
		c.RTTPointers = 64
	}
	return c
}

// entry is one hardware hash table row.
type entry struct {
	valid  bool
	dirty  bool
	mapID  uint64 // 8-byte base address of the software hash map
	key    hashmap.Key
	val    hashmap.Value
	seq    uint64 // ordered-table position for writeback
	lru    uint64 // last-access timestamp
	rttPos int    // back-pointer slot in the RTT entry, -1 if untracked
	m      *hashmap.Map
}

// rttEntry is the Reverse Translation Table row for one hash map: a
// circular buffer of back pointers into the hash table, filled through a
// write pointer in insertion order.
type rttEntry struct {
	back     []int32 // hash table indexes, -1 when invalidated
	writePtr int
	overflow bool
	m        *hashmap.Map
}

// Stats counts accelerator activity for the evaluation (Fig. 7, Fig. 15).
// The tagged fields are the ones a serving fleet exports (see
// obs.Encoder.Struct); the rest are the differential tests' oracles.
type Stats struct {
	Gets       int64 `prom:"hashtable_gets_total,counter" help:"Hardware hash table GET requests."`
	GetHits    int64 `prom:"hashtable_get_hits_total,counter" help:"Hardware hash table GETs served without software."`
	Sets       int64 `prom:"hashtable_sets_total,counter" help:"Hardware hash table SET requests."`
	SetHits    int64 // SET found the key already cached
	Bypasses   int64 // keys too long for the hardware
	EvictClean int64 // clean-entry replacements (hardware only)
	EvictDirty int64 // dirty-entry replacements (software writeback)
	Frees      int64 // Free requests
	FreeScans  int64 // Frees that scanned the table (RTT overflow)
	Writebacks int64 `prom:"hashtable_writebacks_total,counter" help:"Key/value pairs written back to software maps."`
}

// Add folds another counter snapshot into this one — the fleet
// aggregation primitive for multi-worker pools, where each worker owns a
// private table.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.GetHits += o.GetHits
	s.Sets += o.Sets
	s.SetHits += o.SetHits
	s.Bypasses += o.Bypasses
	s.EvictClean += o.EvictClean
	s.EvictDirty += o.EvictDirty
	s.Frees += o.Frees
	s.FreeScans += o.FreeScans
	s.Writebacks += o.Writebacks
}

// HitRate returns the GET hit fraction (SETs never miss, §4.2/Fig. 7).
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.GetHits) / float64(s.Gets)
}

// Table is the hardware hash table plus its RTT.
type Table struct {
	cfg     Config
	entries []entry
	rtt     map[uint64]*rttEntry
	// rttFree recycles rttEntry structures (and their back-pointer
	// backing) as maps die and are born; request-scoped arrays otherwise
	// allocate a fresh tracking entry per map.
	rttFree []*rttEntry
	clock   uint64
	stats   Stats
}

// New builds a table with the given configuration.
func New(cfg Config) *Table {
	cfg = cfg.sanitized()
	t := &Table{
		cfg:     cfg,
		entries: make([]entry, cfg.Entries),
		rtt:     make(map[uint64]*rttEntry),
	}
	for i := range t.entries {
		t.entries[i].rttPos = -1
	}
	return t
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Stats returns a snapshot of the activity counters.
func (t *Table) Stats() Stats { return t.stats }

// hash combines the map base address and the key, mirroring the paper's
// simplified hardware hash function.
func (t *Table) hash(mapID uint64, k hashmap.Key) uint64 {
	h := k.Hash() ^ (mapID * 0x9e3779b97f4a7c15)
	h ^= h >> 29
	return h
}

func (t *Table) tick() uint64 {
	t.clock++
	return t.clock
}

// GetResult reports how a GET was served, for cost accounting.
type GetResult struct {
	Hit          bool // served entirely in hardware
	Bypass       bool // key too long; pure software access
	Found        bool // key exists (in hardware or software)
	EvictedDirty bool // installing the loaded pair wrote back a dirty entry
}

// Get performs a hashtableget. On a hit the value comes straight from the
// table. On a miss, control falls back to software (the map walk), and
// the retrieved pair is installed in the table.
func (t *Table) Get(m *hashmap.Map, k hashmap.Key) (hashmap.Value, GetResult) {
	if k.Len() > t.cfg.MaxKeyBytes {
		t.stats.Bypasses++
		v, ok := m.Get(k)
		return v, GetResult{Bypass: true, Found: ok}
	}
	t.stats.Gets++
	if idx := t.lookup(m.ID(), k); idx >= 0 {
		t.stats.GetHits++
		t.entries[idx].lru = t.tick()
		return t.entries[idx].val, GetResult{Hit: true, Found: true}
	}
	// Software fallback: regular hash map access in memory.
	v, seq, ok := m.GetWithSeq(k)
	if !ok {
		return hashmap.Value{}, GetResult{}
	}
	res := GetResult{Found: true}
	res.EvictedDirty = t.install(m, k, v, seq, false)
	return v, res
}

// SetResult reports how a SET was served.
type SetResult struct {
	Hit          bool // key was already cached (value pointer updated)
	Bypass       bool // key too long; software path
	EvictedDirty bool // made room by writing back a dirty entry
}

// Set performs a hashtableset. The pair lands in the table with the dirty
// bit set; memory is updated lazily (§4.2: "a SET operation silently
// updates the hash table ... without updating the memory").
func (t *Table) Set(m *hashmap.Map, k hashmap.Key, v hashmap.Value) SetResult {
	if k.Len() > t.cfg.MaxKeyBytes {
		t.stats.Bypasses++
		m.Set(k, v)
		return SetResult{Bypass: true}
	}
	t.stats.Sets++
	if k.IsInt {
		// Coherence of the map's auto-index watermark rides on the same
		// access (like the seqOf read below): an int-keyed pair that
		// lives only in the table must still advance the index a
		// software append reads from memory.
		m.BumpIntKey(k.Int)
	}
	if idx := t.lookup(m.ID(), k); idx >= 0 {
		e := &t.entries[idx]
		e.val = v
		e.dirty = true
		e.lru = t.tick()
		t.stats.SetHits++
		return SetResult{Hit: true}
	}
	// The key may already exist in the software map; reuse its ordered
	// position so a future writeback does not duplicate or reorder it.
	seq, existed := t.seqOf(m, k)
	if !existed {
		seq = m.ReserveSeq()
	}
	evicted := t.install(m, k, v, seq, true)
	return SetResult{EvictedDirty: evicted}
}

// seqOf returns the ordered-table position of k in m if present. This is
// the hardware's coherence read of the software structure; it happens on
// the SET-miss path that already pays a memory access.
func (t *Table) seqOf(m *hashmap.Map, k hashmap.Key) (uint64, bool) {
	_, seq, ok := m.GetWithSeq(k)
	return seq, ok
}

// Delete removes a key from both the table and the software map (PHP
// unset), reporting whether it was present in either. The cached copy is
// dropped without writeback since the pair is being destroyed; a pair a
// SET buffered in the table never reached the software map, so only the
// table knows it existed.
func (t *Table) Delete(m *hashmap.Map, k hashmap.Key) bool {
	cached := false
	if idx := t.lookup(m.ID(), k); idx >= 0 {
		t.invalidate(idx)
		cached = true
	}
	return m.Delete(k) || cached
}

// FreeResult reports how a Free was served.
type FreeResult struct {
	// Scanned is true when the RTT overflowed and the whole table had to
	// be scanned (the "seemingly expensive operation" the RTT avoids).
	Scanned bool
	// Invalidated is how many table entries belonged to the map.
	Invalidated int
}

// Free invalidates every table entry belonging to the map in response to
// the map's deallocation. Short-lived maps thereby live and die entirely
// inside the hardware without ever touching memory (§4.2).
func (t *Table) Free(m *hashmap.Map) FreeResult {
	t.stats.Frees++
	re := t.rtt[m.ID()]
	var res FreeResult
	if re == nil {
		return res
	}
	if re.overflow {
		t.stats.FreeScans++
		res.Scanned = true
		for i := range t.entries {
			if t.entries[i].valid && t.entries[i].mapID == m.ID() {
				t.invalidate(i)
				res.Invalidated++
			}
		}
	} else {
		for _, bp := range re.back {
			if bp >= 0 {
				t.invalidate(int(bp))
				res.Invalidated++
			}
		}
	}
	t.recycleRTT(m.ID())
	return res
}

// CoherentRead makes a software read of (m, k) coherent with the table:
// a dirty cached copy of the pair is written back and cleaned first, as
// the snoop/inclusion logic does when a demand load hits an address the
// table holds (§4.2). It reports whether a writeback happened — software
// methods that specialize static-key accesses to offset reads (inline
// caching, §3) still see values buffered by dynamic-key SETs.
func (t *Table) CoherentRead(m *hashmap.Map, k hashmap.Key) bool {
	if k.Len() > t.cfg.MaxKeyBytes {
		return false
	}
	idx := t.lookup(m.ID(), k)
	if idx < 0 || !t.entries[idx].dirty {
		return false
	}
	e := &t.entries[idx]
	e.m.WritebackSeq(e.key, e.val, e.seq)
	e.dirty = false
	t.stats.Writebacks++
	return true
}

// CoherentWrite makes a software store of (m, k) coherent with the
// table: any cached copy of the pair is invalidated so later
// hashtablegets refetch the stored value from memory instead of serving
// a stale hardware copy. A dirty copy is written back first, so a pair
// that so far lived only in the table keeps its ordered position and the
// store updates it in place. It reports whether an entry was dropped.
func (t *Table) CoherentWrite(m *hashmap.Map, k hashmap.Key) bool {
	if k.Len() > t.cfg.MaxKeyBytes {
		return false
	}
	idx := t.lookup(m.ID(), k)
	if idx < 0 {
		return false
	}
	if e := &t.entries[idx]; e.dirty {
		e.m.WritebackSeq(e.key, e.val, e.seq)
		t.stats.Writebacks++
	}
	t.invalidate(idx)
	return true
}

// FlushMap writes the map's dirty entries back to the software map and
// cleans them. It returns the number of pairs written back.
func (t *Table) FlushMap(m *hashmap.Map) int {
	re := t.rtt[m.ID()]
	if re == nil {
		return 0
	}
	written := 0
	flush := func(i int) {
		e := &t.entries[i]
		if e.valid && e.mapID == m.ID() && e.dirty {
			m.WritebackSeq(e.key, e.val, e.seq)
			e.dirty = false
			written++
			t.stats.Writebacks++
		}
	}
	if re.overflow {
		for i := range t.entries {
			flush(i)
		}
	} else {
		for _, bp := range re.back {
			if bp >= 0 {
				flush(int(bp))
			}
		}
	}
	return written
}

// FlushAll writes back every dirty entry and invalidates the whole table
// — the context-switch protocol. The software maps' hash indexes are
// marked stale, exercising the reconstruction path the paper notes is
// needed only for correctness.
func (t *Table) FlushAll() int {
	written := 0
	staled := map[uint64]*hashmap.Map{}
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if e.dirty {
			e.m.WritebackSeq(e.key, e.val, e.seq)
			t.stats.Writebacks++
			written++
			staled[e.mapID] = e.m
		}
		t.invalidate(i)
	}
	for _, m := range staled {
		m.MarkStale()
	}
	t.rtt = make(map[uint64]*rttEntry)
	return written
}

// lookup probes the window for (mapID, key), returning the entry index or
// -1. Hardware examines the window's entries in parallel; cost is
// constant regardless of where in the window the key sits.
func (t *Table) lookup(mapID uint64, k hashmap.Key) int {
	mask := uint64(len(t.entries) - 1)
	h := t.hash(mapID, k)
	for w := 0; w < t.cfg.ProbeWindow; w++ {
		i := int((h + uint64(w)) & mask)
		e := &t.entries[i]
		if e.valid && e.mapID == mapID && keyEq(e.key, k) {
			return i
		}
	}
	return -1
}

func keyEq(a, b hashmap.Key) bool {
	if a.IsInt != b.IsInt {
		return false
	}
	if a.IsInt {
		return a.Int == b.Int
	}
	return a.Str == b.Str
}

// install places a pair into the table, choosing a victim within the
// probe window: invalid first, then LRU clean, then LRU dirty (which
// costs a software writeback). It reports whether a dirty writeback
// happened.
func (t *Table) install(m *hashmap.Map, k hashmap.Key, v hashmap.Value, seq uint64, dirty bool) bool {
	mask := uint64(len(t.entries) - 1)
	h := t.hash(m.ID(), k)

	victim, victimKind := -1, 3 // 0 invalid, 1 clean, 2 dirty
	var victimLRU uint64
	for w := 0; w < t.cfg.ProbeWindow; w++ {
		i := int((h + uint64(w)) & mask)
		e := &t.entries[i]
		kind := 2
		if !e.valid {
			kind = 0
		} else if !e.dirty {
			kind = 1
		}
		if kind < victimKind || (kind == victimKind && e.lru < victimLRU) {
			victim, victimKind, victimLRU = i, kind, e.lru
		}
	}

	evictedDirty := false
	if victimKind == 2 {
		// LRU dirty entry: software writes it back before replacement.
		e := &t.entries[victim]
		e.m.WritebackSeq(e.key, e.val, e.seq)
		t.stats.Writebacks++
		t.stats.EvictDirty++
		evictedDirty = true
	} else if victimKind == 1 {
		t.stats.EvictClean++
	}
	if victimKind != 0 {
		t.invalidate(victim)
	}

	e := &t.entries[victim]
	e.valid = true
	e.dirty = dirty
	e.mapID = m.ID()
	e.key = k
	e.val = v
	e.seq = seq
	e.lru = t.tick()
	e.m = m
	e.rttPos = t.rttTrack(m, victim)
	return evictedDirty
}

// invalidate clears an entry and its RTT back pointer.
func (t *Table) invalidate(i int) {
	e := &t.entries[i]
	if e.valid && e.rttPos >= 0 {
		if re := t.rtt[e.mapID]; re != nil && e.rttPos < len(re.back) && re.back[e.rttPos] == int32(i) {
			re.back[e.rttPos] = -1
		}
	}
	*e = entry{rttPos: -1}
}

// recycleRTT removes the map's tracking entry and pushes it on the free
// list for the next rttTrack to reuse.
func (t *Table) recycleRTT(id uint64) {
	if re := t.rtt[id]; re != nil {
		re.back = re.back[:0]
		re.writePtr = 0
		re.overflow = false
		re.m = nil
		t.rttFree = append(t.rttFree, re)
	}
	delete(t.rtt, id)
}

// rttTrack records a back pointer for the newly installed entry through
// the map's RTT write pointer, returning the slot used (or -1 after
// overflow).
func (t *Table) rttTrack(m *hashmap.Map, tableIdx int) int {
	re := t.rtt[m.ID()]
	if re == nil {
		if n := len(t.rttFree); n > 0 {
			re = t.rttFree[n-1]
			t.rttFree[n-1] = nil
			t.rttFree = t.rttFree[:n-1]
			re.m = m
		} else {
			re = &rttEntry{back: make([]int32, 0, 8), m: m}
		}
		t.rtt[m.ID()] = re
	}
	if re.overflow {
		return -1
	}
	if re.writePtr >= t.cfg.RTTPointers {
		// Circular buffer exhausted: stop tracking order precisely; Free
		// and flush fall back to scanning.
		re.overflow = true
		return -1
	}
	re.back = append(re.back, int32(tableIdx))
	pos := re.writePtr
	re.writePtr++
	return pos
}
