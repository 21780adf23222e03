// Package heapmgr implements the paper's hardware heap manager (§4.3):
// the most frequently accessed components of the VM's slab allocator —
// the size class table and a few free lists — held in a small hardware
// structure that satisfies most allocation and deallocation requests in
// one cycle.
//
// Reproduced design points:
//
//   - A comparator limits hardware service to requests of at most 128
//     bytes; 8 size classes, each with a 32-entry hardware free list with
//     head and tail pointers. The core pops and pushes at the head; the
//     prefetcher refills at the tail.
//   - A pointer-chasing prefetcher pulls the next available blocks from
//     the software heap manager's free lists so a hardware miss is rare
//     and refill latency hides behind the common case.
//   - On hmfree overflow, the software handler spills one block back to
//     the memory free list (a single pointer store). Memory's heap
//     structures are otherwise updated lazily — only on overflow or at
//     context switches (hmflush) — unlike eagerly-coherent concurrent
//     work (Mallacc), exploiting the workloads' strong memory reuse.
package heapmgr

import (
	"repro/internal/heap"
)

// Config sizes the hardware heap manager.
type Config struct {
	// ListEntries is each hardware free list's capacity (paper: 32).
	ListEntries int
	// MaxSize is the comparator's request-size limit (paper: 128 bytes).
	MaxSize int
	// PrefetchLow triggers the prefetcher when a list drops below it.
	PrefetchLow int
	// PrefetchBatch is how many blocks one prefetch pulls in.
	PrefetchBatch int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{ListEntries: 32, MaxSize: heap.MaxSmallSize, PrefetchLow: 8, PrefetchBatch: 16}
}

func (c Config) sanitized() Config {
	if c.ListEntries <= 0 {
		c.ListEntries = 32
	}
	if c.MaxSize <= 0 || c.MaxSize > heap.MaxSmallSize {
		c.MaxSize = heap.MaxSmallSize
	}
	if c.PrefetchLow < 0 {
		c.PrefetchLow = 0
	}
	if c.PrefetchLow > c.ListEntries {
		c.PrefetchLow = c.ListEntries
	}
	if c.PrefetchBatch <= 0 {
		c.PrefetchBatch = 16
	}
	return c
}

// Stats counts hardware heap manager activity.
type Stats struct {
	Mallocs      int64 // hmmalloc requests within the comparator limit
	MallocHits   int64 // served from a hardware free list
	Frees        int64 // hmfree requests within the comparator limit
	FreeHits     int64 // absorbed by a hardware free list
	Overflows    int64 // hmfree spills to memory (software handler)
	Bypasses     int64 // requests above MaxSize (software path)
	Prefetches   int64 // prefetcher refill operations
	PrefetchedBl int64 // blocks brought in by the prefetcher
	Flushes      int64 // hmflush invocations
}

// MallocHitRate returns the fraction of eligible mallocs served in
// hardware.
func (s Stats) MallocHitRate() float64 {
	if s.Mallocs == 0 {
		return 0
	}
	return float64(s.MallocHits) / float64(s.Mallocs)
}

// Manager is the hardware heap manager bound to the software slab
// allocator it stays lazily coherent with.
type Manager struct {
	cfg Config
	sw  *heap.Allocator
	// lists holds one free list per small class, each on a fixed
	// ListEntries backing it never leaves: index 0 is the tail (the
	// coldest block, where the prefetcher inserts and overflow spills),
	// the last entry the head (where the core pops and pushes).
	lists   [][]uint64
	scratch []uint64 // prefetch staging, reused across refills
	stats   Stats
}

// New builds a manager over the given software allocator.
func New(cfg Config, sw *heap.Allocator) *Manager {
	cfg = cfg.sanitized()
	h := &Manager{cfg: cfg, sw: sw, lists: make([][]uint64, heap.NumSmallClasses)}
	backing := make([]uint64, heap.NumSmallClasses*cfg.ListEntries)
	for c := range h.lists {
		h.lists[c] = backing[c*cfg.ListEntries : c*cfg.ListEntries : (c+1)*cfg.ListEntries]
	}
	return h
}

// Stats returns a snapshot of the activity counters.
func (h *Manager) Stats() Stats { return h.stats }

// MallocResult reports how an allocation was served.
type MallocResult struct {
	Hit      bool // popped from the hardware free list (1 cycle)
	Bypass   bool // size above the comparator limit; software path
	Prefetch bool // the prefetcher refilled after this request
}

// Malloc performs an hmmalloc. Requests above the comparator limit set
// the zero flag (Bypass) and take the software path entirely.
func (h *Manager) Malloc(size int) (heap.Block, MallocResult) {
	if size > h.cfg.MaxSize {
		h.stats.Bypasses++
		return h.sw.Alloc(size), MallocResult{Bypass: true}
	}
	c := heap.ClassFor(size)
	h.stats.Mallocs++
	res := MallocResult{}
	if len(h.lists[c]) == 0 {
		// Zero flag raised: the software handler pulls the next free block
		// from the software heap manager.
		h.lists[c] = h.sw.PopFree(c, 1, h.lists[c])
	} else {
		res.Hit = true
		h.stats.MallocHits++
	}
	// Pop at the head.
	l := h.lists[c]
	addr := l[len(l)-1]
	l = l[:len(l)-1]
	h.sw.MarkLive(addr, c)

	// The prefetcher tops the list back up through the tail pointer.
	if len(l) < h.cfg.PrefetchLow {
		n := min(h.cfg.PrefetchBatch, h.cfg.ListEntries-len(l))
		if n > 0 {
			// Refilled blocks go at the tail end (the front of the slice)
			// ahead of whatever survived.
			h.scratch = h.sw.PopFree(c, n, h.scratch[:0])
			got := len(h.scratch)
			l = l[:len(l)+got]
			copy(l[got:], l)
			copy(l, h.scratch)
			h.stats.Prefetches++
			h.stats.PrefetchedBl += int64(got)
			res.Prefetch = true
		}
	}
	h.lists[c] = l
	return heap.Block{Addr: addr, Class: c, Size: size}, res
}

// FreeResult reports how a deallocation was served.
type FreeResult struct {
	Hit      bool // absorbed by the hardware free list
	Bypass   bool // block above the comparator limit
	Overflow bool // software handler spilled a block to memory
}

// Free performs an hmfree. An overflowing list sets the zero flag and the
// software handler links the evicted block back into the memory free
// list.
func (h *Manager) Free(b heap.Block) FreeResult {
	if b.Class < 0 || b.Class >= heap.NumSmallClasses || b.Size > h.cfg.MaxSize {
		h.stats.Bypasses++
		h.sw.Free(b)
		return FreeResult{Bypass: true}
	}
	h.stats.Frees++
	h.sw.MarkDead(b.Addr, b.Class)
	res := FreeResult{Hit: true}
	h.stats.FreeHits++
	l := h.lists[b.Class]
	if len(l) >= h.cfg.ListEntries {
		// Overflow: spill the tail block (the coldest) to memory.
		h.stats.Overflows++
		res.Overflow = true
		h.sw.PushFree(b.Class, l[:1])
		l = l[:copy(l, l[1:])]
	}
	h.lists[b.Class] = append(l, b.Addr)
	return res
}

// Flush implements hmflush: every hardware free list entry is written
// back to the software heap manager's data structure, as required at
// context switches. It returns the number of blocks flushed.
func (h *Manager) Flush() int {
	h.stats.Flushes++
	n := 0
	for c := range h.lists {
		if len(h.lists[c]) == 0 {
			continue
		}
		h.sw.PushFree(c, h.lists[c])
		n += len(h.lists[c])
		h.lists[c] = h.lists[c][:0]
	}
	return n
}
