// Package arena provides a per-request bump allocator mirroring PHP's
// request-scoped memory model and the paper's §4.3 slab-class heap
// manager: every allocation made while serving one request comes from a
// small set of chunks owned by the worker, and instead of freeing
// object-by-object the whole region is recycled with one Reset between
// requests. This removes steady-state Go heap allocations (and the GC
// pressure they cause) from the serve path, which is exactly the churn
// the paper's hardware heap manager exists to absorb.
//
// Ownership contract: an Arena is single-owner and NOT safe for
// concurrent use. Bytes returned by Make/Buf remain valid only
// until the owner's next Reset; anything that must outlive the request
// (a cache entry, an HTTP response already handed to another goroutine)
// must be copied out to the ordinary heap first.
package arena

// DefaultChunk is the chunk size used when New is given a
// non-positive chunkSize. 64 KiB keeps chunk count low for typical
// rendered pages (tens of KiB) without holding megabytes per worker.
const DefaultChunk = 64 << 10

// Arena is a chunked bump allocator. The zero value is not usable; call
// New.
type Arena struct {
	chunkSize int
	// retain bounds the total chunk bytes kept across Reset; chunks
	// beyond it are released to the GC so one pathological request
	// cannot pin memory forever. <= 0 means retain everything.
	retain int
	chunks [][]byte
	// cur indexes the chunk currently being bumped; used is the bump
	// offset within it.
	cur  int
	used int
}

// New returns an arena that bumps through chunkSize-byte chunks
// (DefaultChunk when chunkSize <= 0) and retains up to retain bytes of
// chunk capacity across Reset (everything when retain <= 0).
func New(chunkSize, retain int) *Arena {
	if chunkSize <= 0 {
		chunkSize = DefaultChunk
	}
	return &Arena{chunkSize: chunkSize, retain: retain, cur: -1}
}

// Make returns a zeroed slice of length n carved from the arena.
// Requests larger than the chunk size fall back to a plain heap
// allocation (they would defeat bump reuse anyway).
func (a *Arena) Make(n int) []byte {
	b := a.Buf(n)[:n]
	clear(b)
	return b
}

// Buf returns a zero-length slice with at least the given capacity
// carved from the arena. Appending within that capacity never
// reallocates; growing past it migrates the data to the ordinary heap
// (safe, but the migrated bytes stop being arena-managed).
func (a *Arena) Buf(capacity int) []byte {
	if capacity < 0 {
		capacity = 0
	}
	if capacity > a.chunkSize {
		return make([]byte, 0, capacity)
	}
	if a.cur < 0 || a.chunkSize-a.used < capacity {
		a.grow()
	}
	c := a.chunks[a.cur]
	b := c[a.used : a.used : a.used+capacity]
	a.used += capacity
	return b
}

// grow advances to the next retained chunk or allocates a fresh one.
func (a *Arena) grow() {
	a.cur++
	a.used = 0
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make([]byte, a.chunkSize))
	}
}

// Reset recycles the arena for the next request: every previously
// returned slice becomes invalid (its bytes will be handed out again),
// and chunk capacity beyond the retain bound is released to the GC.
// Reset does not zero retained chunks; Make zeroes on allocation.
func (a *Arena) Reset() {
	a.cur = -1
	a.used = 0
	if a.retain > 0 {
		keep := a.retain / a.chunkSize
		if keep < 1 {
			keep = 1
		}
		if len(a.chunks) > keep {
			a.chunks = a.chunks[:keep:keep]
		}
	}
}
