// Package hashmap implements the software PHP array: an insertion-ordered
// hash table modeled on HHVM's MixedArray. It is the "software equivalent
// laid out in the conventional address space" that the paper's hardware
// hash table stays coherent with (§4.2): each key/value pair lives in a
// table ordered by insertion, plus a hash index for fast lookup, and a
// stale flag that the hardware sets when the hash index must be rebuilt
// after a flush.
//
// Every operation reports its probe count and compared key bytes to an
// optional Observer so the simulation can charge the software walk cost
// (paper average: 90.66 micro-ops per walk).
//
// A stored value is a Value: PHP's type tag plus its payload, held in the
// struct itself, so no layer from this map up boxes a value. An array
// value is a *Map, which is also the array's handle: it carries the
// simulated heap block of the array header. The cost model never looks
// at a value, only at keys, probes and writebacks.
package hashmap

import (
	"sort"
	"unsafe"

	"repro/internal/heap"
)

// Kind is a Value's type tag.
type Kind uint8

// The tags. The script engine packs two of them into each type-feedback
// pair, so the numbering must not change.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindArray
)

// Value is one PHP value: a tag and its payload. The zero Value is null.
type Value struct {
	K Kind
	N int64  // bool (0/1), int, or the float's bits
	S string // string payload, usually a view into a request arena
	A *Map   // array handle
}

// IntValue returns an integer Value.
func IntValue(i int64) Value { return Value{K: KindInt, N: i} }

// StrValue returns a string Value.
func StrValue(s string) Value { return Value{K: KindString, S: s} }

// BytesOf returns s's bytes without copying, as the input of a string
// operation; ViewOf returns an operation's result as a string without
// copying. They are the runtime's only use of unsafe. Soundness: no vm
// or isa operation writes into its inputs (each returns a fresh slice or
// a sub-slice of its subject), and BytesOf's capacity equals its length,
// so an append can never write into the string. ViewOf is only given a
// slice that nothing writes after it is returned: a string-op result or
// a buffer its caller just filled. That memory is usually a request
// arena, so a view is valid until the runtime's next BeginRequest, and
// whatever keeps one longer must copy it.
func BytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// ViewOf is BytesOf's inverse (see BytesOf for when it is sound).
func ViewOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Key is a PHP array key: either an integer or a string. A string key
// caches its hash in the Int it leaves unused, as PHP's zend_string does
// in its header: Int is 0 (not computed) or Hash of Str. Equality reads
// only IsInt plus Int or Str, so Key{Str: s} and StrKey(s) are one key.
type Key struct {
	IsInt bool
	Int   int64
	Str   string
}

// IntKey builds an integer key.
func IntKey(i int64) Key { return Key{IsInt: true, Int: i} }

// StrKey builds a string key carrying its hash, which every table that
// looks it up then reads instead of rehashing the bytes.
func StrKey(s string) Key { return Key{Int: int64(strHash(s)), Str: s} }

// Len returns the key's length in bytes (8 for integer keys), the measure
// the paper uses for its "95% of keys are at most 24 bytes" statistic.
func (k Key) Len() int {
	if k.IsInt {
		return 8
	}
	return len(k.Str)
}

// Hash returns the key's hash. String keys use FNV-1a (the cached one
// when Int holds it); integer keys use a 64-bit mix. This mirrors the paper's observation that a simplified hash
// function suffices without compromising hit rate (§4.2).
func (k Key) Hash() uint64 {
	if k.IsInt {
		x := uint64(k.Int)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	if k.Int != 0 {
		return uint64(k.Int)
	}
	return strHash(k.Str)
}

// strHash is FNV-1a over s.
func strHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Op identifies a map operation for observer callbacks.
type Op uint8

const (
	OpGet Op = iota
	OpSet
	OpDelete
	OpIterate
)

// Observer receives cost events from map operations. Implementations must
// be cheap; they run on every access.
type Observer interface {
	// OnWalk is called after a hash walk: op performed, hash table entries
	// probed, key bytes compared, and whether the op inserted a new entry.
	OnWalk(op Op, probes int, keyBytes int, inserted bool)
	// OnResize is called when the table grows to newSlots slots.
	OnResize(newSlots int)
	// OnRebuild is called when a stale hash index (hardware writeback
	// without index maintenance, §4.2 coherence protocol) is rebuilt by a
	// software access. Rare in practice; counted for observability.
	OnRebuild()
}

const (
	emptySlot     = -1
	tombstoneSlot = -2
	minLgSize     = 3 // 8 slots
)

type entry struct {
	key  Key
	val  Value
	dead bool
	seq  uint64 // insertion sequence number (ordered-table position)
}

// Map is an insertion-ordered PHP array and the handle a Value holds.
// The zero value is not usable; call NewWithID.
type Map struct {
	// Block is the simulated heap allocation of the array header, which
	// the owning runtime mallocs and frees; the map itself never reads it.
	Block heap.Block
	// Freed marks a handle its runtime has freed and not handed out
	// again (Reset clears it), so a double free is caught instead of
	// aliasing a later array.
	Freed bool

	id      uint64
	entries []entry // insertion order; dead entries are tombstones
	index   []int32 // open-addressed hash index into entries
	mask    uint64
	size    int  // live entries
	stale   bool // hardware flushed: hash index must be rebuilt before use
	obs     Observer

	nextIntKey int64  // PHP's next automatic integer key
	nextSeq    uint64 // next insertion sequence number
	unordered  bool   // a writeback landed out of sequence order
	pinned     bool   // a running Foreach reads the entry table
}

// NewWithID creates an empty map with a caller-chosen identity; obs may
// be nil. The ID stands in for the map structure's base address (§4.2),
// so it only needs to be unique among maps that share a hardware hash
// table — one simulated core's maps — letting each core number its maps
// locally and deterministically regardless of goroutine interleaving.
func NewWithID(id uint64, obs Observer) *Map {
	return &Map{
		id:    id,
		index: newIndex(1 << minLgSize),
		mask:  1<<minLgSize - 1,
		obs:   obs,
	}
}

func newIndex(n int) []int32 {
	ix := make([]int32, n)
	for i := range ix {
		ix[i] = emptySlot
	}
	return ix
}

// ID returns the map's unique identity, standing in for the base address
// of the hash map structure in memory that the hardware hash table hashes
// together with the key (§4.2).
func (m *Map) ID() uint64 { return m.id }

// Reset returns the map to its freshly-constructed state under a new
// identity, reusing the entry and index backing arrays. The result is
// observationally identical to NewWithID(id, obs) — the index shrinks
// back to the minimum size so probe and growth behavior replays exactly —
// which is what lets a runtime recycle request-scoped array structures
// without perturbing the simulated hash-table behavior. The caller must
// guarantee no accelerator state still references the old identity
// (i.e. the map was freed through the hardware hash table first).
func (m *Map) Reset(id uint64) {
	m.id = id
	m.Freed = false
	m.unpin()
	// Clear the entries: values hold strings and array handles, which a
	// recycled map must not keep alive.
	for i := range m.entries {
		m.entries[i] = entry{}
	}
	m.entries = m.entries[:0]
	if len(m.index) != 1<<minLgSize {
		m.index = m.index[:0]
		if cap(m.index) >= 1<<minLgSize {
			m.index = m.index[:1<<minLgSize]
		} else {
			m.index = make([]int32, 1<<minLgSize)
		}
	}
	for i := range m.index {
		m.index[i] = emptySlot
	}
	m.mask = 1<<minLgSize - 1
	m.size = 0
	m.stale = false
	m.nextIntKey = 0
	m.nextSeq = 0
	m.unordered = false
}

// Size returns the number of live key/value pairs.
func (m *Map) Size() int { return m.size }

// MarkStale is called by the hardware hash table when it writes entries
// back to the ordered table without maintaining the hash index; the next
// software access rebuilds the index first (§4.2 coherence protocol).
func (m *Map) MarkStale() { m.stale = true }

func (m *Map) ensureFresh() {
	if !m.stale {
		return
	}
	m.stale = false
	if m.obs != nil {
		m.obs.OnRebuild()
	}
	m.rebuildIndex(len(m.index))
}

// rebuildIndex reconstructs the hash index over live entries with n slots
// and compacts tombstones out of the entry table.
func (m *Map) rebuildIndex(n int) {
	m.unpin()
	live := m.entries[:0]
	for _, e := range m.entries {
		if !e.dead {
			live = append(live, e)
		}
	}
	m.entries = live
	m.index = newIndex(n)
	m.mask = uint64(n - 1)
	for i := range m.entries {
		slot := m.entries[i].key.Hash() & m.mask
		for m.index[slot] != emptySlot {
			slot = (slot + 1) & m.mask
		}
		m.index[slot] = int32(i)
	}
	if m.obs != nil {
		m.obs.OnResize(n)
	}
}

// findSlot locates the key. It returns the index slot, the entry position
// (or -1), and the number of probes performed plus key bytes compared.
func (m *Map) findSlot(k Key) (slot uint64, pos int32, probes, keyBytes int) {
	h := k.Hash()
	slot = h & m.mask
	firstTomb := uint64(1<<63 - 1)
	for {
		probes++
		p := m.index[slot]
		switch p {
		case emptySlot:
			if firstTomb != 1<<63-1 {
				slot = firstTomb
			}
			return slot, -1, probes, keyBytes
		case tombstoneSlot:
			if firstTomb == 1<<63-1 {
				firstTomb = slot
			}
		default:
			e := &m.entries[p]
			if e.key.IsInt == k.IsInt {
				if k.IsInt {
					keyBytes += 8
					if e.key.Int == k.Int {
						return slot, p, probes, keyBytes
					}
				} else {
					keyBytes += min(len(k.Str), len(e.key.Str))
					if e.key.Str == k.Str {
						return slot, p, probes, keyBytes
					}
				}
			}
		}
		slot = (slot + 1) & m.mask
	}
}

// Get looks up a key, returning its value and whether it was present.
func (m *Map) Get(k Key) (Value, bool) {
	m.ensureFresh()
	_, pos, probes, kb := m.findSlot(k)
	if m.obs != nil {
		m.obs.OnWalk(OpGet, probes, kb, false)
	}
	if pos < 0 {
		return Value{}, false
	}
	return m.entries[pos].val, true
}

// Set inserts or updates a key. New keys append to the insertion order.
func (m *Map) Set(k Key, v Value) {
	m.ensureFresh()
	slot, pos, probes, kb := m.findSlot(k)
	inserted := pos < 0
	if inserted {
		m.entries = append(m.entries, entry{key: k, val: v, seq: m.nextSeq})
		m.nextSeq++
		m.index[slot] = int32(len(m.entries) - 1)
		m.size++
		if k.IsInt && k.Int >= m.nextIntKey {
			m.nextIntKey = k.Int + 1
		}
		if m.needGrow() {
			m.grow()
		}
	} else {
		m.unpin()
		m.entries[pos].val = v
	}
	if m.obs != nil {
		m.obs.OnWalk(OpSet, probes, kb, inserted)
	}
}

// NextIntKey returns PHP's next automatic integer key, the one
// `$a[] = v` stores under.
func (m *Map) NextIntKey() int64 { return m.nextIntKey }

// Delete removes a key, reporting whether it was present.
func (m *Map) Delete(k Key) bool {
	m.ensureFresh()
	slot, pos, probes, kb := m.findSlot(k)
	if m.obs != nil {
		m.obs.OnWalk(OpDelete, probes, kb, false)
	}
	if pos < 0 {
		return false
	}
	m.unpin()
	m.entries[pos].dead = true
	m.index[slot] = tombstoneSlot
	m.size--
	return true
}

// needGrow reports whether the load factor (including tombstones recorded
// in the entry table) exceeds 3/4.
func (m *Map) needGrow() bool {
	return len(m.entries) >= len(m.index)*3/4
}

// grow resizes the index after a grow trigger. Because needGrow counts
// tombstones, a delete-heavy workload can trip it while the live load is
// low; in that case compaction alone restores the load factor, so the
// index is rebuilt at the same size instead of doubling (keeping the
// index bounded by the live population, not the churn history).
func (m *Map) grow() {
	n := len(m.index)
	if m.size > n/2 {
		n *= 2
	}
	m.rebuildIndex(n)
}

// Foreach iterates live pairs in insertion order, the invariant PHP's
// foreach guarantees and the RTT preserves in hardware (§4.2). The
// callback returns false to stop early.
//
// It has PHP's foreach-over-a-copy semantics without a copy up front: it
// walks the entry table as it was at entry, which stays pinned while the
// walk runs. A callback write to an entry the walk can still read (a
// Delete, an update in place, a compaction by a grow or stale rebuild, a
// reorder) first moves the map onto a copy of the table (unpin). So keys
// live at the start are each visited exactly once, with their values at
// the start, and entries inserted by the callback are not visited.
func (m *Map) Foreach(f func(k Key, v Value) bool) {
	m.ensureFresh()
	m.ensureOrdered()
	entries, outer := m.entries, m.pinned
	m.pinned = true
	n := 0
	for i := range entries {
		if e := &entries[i]; !e.dead {
			n++
			if !f(e.key, e.val) {
				break
			}
		}
	}
	m.pinned = outer // a walk this one runs inside may still read it
	if m.obs != nil {
		m.obs.OnWalk(OpIterate, n, 0, false)
	}
}

// unpin moves the map onto its own copy of the entry table before a
// write a running Foreach could read. The copy keeps the capacity, so
// later appends grow no sooner than they would have.
func (m *Map) unpin() {
	if !m.pinned {
		return
	}
	m.pinned = false
	m.entries = append(make([]entry, 0, cap(m.entries)), m.entries...)
}

// BumpIntKey advances the auto-index watermark to cover int key i. The
// hardware hash table calls this when it accepts an int-keyed SET whose
// pair lives only in the table, so that a later append (`$a[] = v`)
// reading the software watermark does not reuse the buffered index.
func (m *Map) BumpIntKey(i int64) {
	if i >= m.nextIntKey {
		m.nextIntKey = i + 1
	}
}

// ReserveSeq hands out the next insertion sequence number. The hardware
// hash table reserves a sequence when it accepts a SET for a key that
// does not exist in the software map yet, so that a later writeback lands
// at the correct ordered-table position (§4.2 foreach guarantee).
func (m *Map) ReserveSeq() uint64 {
	s := m.nextSeq
	m.nextSeq++
	return s
}

// GetWithSeq is Get plus the entry's insertion sequence number, which the
// hardware hash table caches so writebacks preserve iteration order.
func (m *Map) GetWithSeq(k Key) (v Value, seq uint64, ok bool) {
	m.ensureFresh()
	_, pos, probes, kb := m.findSlot(k)
	if m.obs != nil {
		m.obs.OnWalk(OpGet, probes, kb, false)
	}
	if pos < 0 {
		return Value{}, 0, false
	}
	return m.entries[pos].val, m.entries[pos].seq, true
}

// WritebackSeq writes a key/value pair into the ordered table at the
// given sequence position — the hardware hash table's flush path (§4.2:
// the hardware "only writes back to the former [ordered] table"). It
// returns true if the key was already present (value updated in place,
// original position kept). Out-of-order sequence numbers are recorded and
// repaired on the next ordered access.
func (m *Map) WritebackSeq(k Key, v Value, seq uint64) bool {
	m.ensureFresh()
	slot, pos, _, _ := m.findSlot(k)
	if pos >= 0 {
		m.unpin()
		m.entries[pos].val = v
		return true
	}
	if n := len(m.entries); n > 0 && m.entries[n-1].seq > seq {
		m.unordered = true
	}
	m.entries = append(m.entries, entry{key: k, val: v, seq: seq})
	m.index[slot] = int32(len(m.entries) - 1)
	m.size++
	if seq >= m.nextSeq {
		m.nextSeq = seq + 1
	}
	if k.IsInt && k.Int >= m.nextIntKey {
		m.nextIntKey = k.Int + 1
	}
	if m.needGrow() {
		m.grow()
	}
	return false
}

// ensureOrdered repairs ordered-table positions after out-of-order
// writebacks by stable-sorting live entries on their sequence numbers and
// rebuilding the hash index.
func (m *Map) ensureOrdered() {
	if !m.unordered {
		return
	}
	m.unordered = false
	m.unpin()
	sort.SliceStable(m.entries, func(i, j int) bool { return m.entries[i].seq < m.entries[j].seq })
	m.rebuildIndex(len(m.index))
}
