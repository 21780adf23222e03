// Package heap implements the VM's software dynamic memory manager using
// the slab allocation technique the paper describes (§4.3): the VM
// allocates large chunks of memory, breaks them into fixed-size segments
// according to each slab class's size, and keeps the segment pointers in
// per-class free lists.
//
// The allocator simulates an address space (blocks are modeled addresses,
// no real memory is handed out) while enforcing real allocator invariants:
// no double allocation, no double free, free-list integrity. As in a slab
// heap, a block's class and liveness follow from its address: class c's
// segments tile the region at regionBase(c), and a refill chunk's 64
// segments are one uint64 of live-bits. It records
// the statistics behind Fig. 8 — per-slab usage distribution and live
// memory over time — and reports events to an Observer so the simulation
// can charge the software costs (paper: malloc 69 µops, free 37 µops,
// kernel involvement on slab refill).
package heap

import (
	"fmt"
	"sort"
)

// sizeClasses lists the slab segment sizes. The first eight classes use
// 16-byte granularity up to 128 bytes — exactly the range the hardware
// heap manager covers (§4.3: "It uses only 8 memory allocation slabs") —
// followed by geometric classes for larger objects.
var sizeClasses = []int{
	16, 32, 48, 64, 80, 96, 112, 128, // hardware-eligible classes 0..7
	192, 256, 384, 512, 768, 1024, 2048, 4096,
}

// NumSmallClasses is the number of slab classes the hardware heap manager
// can serve (requests of at most 128 bytes).
const NumSmallClasses = 8

// MaxSmallSize is the largest request the hardware heap manager accepts.
const MaxSmallSize = 128

// MaxSlabSize is the largest slab-managed request; anything bigger goes
// straight to the kernel.
const MaxSlabSize = 4096

// chunkSegments is how many segments a slab refill carves from a chunk.
const chunkSegments = 64

// regionShift sizes each class's 1 TiB region; kernel-direct blocks are
// carved past the last one.
const regionShift = 40

func regionBase(c int) uint64 { return uint64(c+1) << regionShift }

// NumClasses returns the total number of slab classes.
func NumClasses() int { return len(sizeClasses) }

// ClassSize returns the segment size of slab class c.
func ClassSize(c int) int { return sizeClasses[c] }

// ClassFor returns the slab class index for a request of size bytes, or
// -1 if the request exceeds MaxSlabSize and must go to the kernel.
func ClassFor(size int) int {
	if size > MaxSlabSize {
		return -1
	}
	i := sort.SearchInts(sizeClasses, size)
	if size <= 0 {
		return 0
	}
	return i
}

// Block is an allocated segment: a modeled address plus its slab class.
type Block struct {
	Addr  uint64
	Class int // -1 for huge (kernel-direct) blocks
	Size  int // requested size
}

// Observer receives allocation cost events. Implementations must be cheap.
type Observer interface {
	// OnAlloc fires for each allocation served from a slab free list.
	OnAlloc(class int)
	// OnFree fires for each deallocation returned to a slab free list.
	OnFree(class int)
	// OnRefill fires when a slab class exhausts its free list and a new
	// chunk is carved (the kernel-involved path the paper tuned in §3).
	OnRefill(class int, segments int)
	// OnHuge fires for requests above MaxSlabSize (direct kernel call).
	OnHuge(size int)
}

// Stats aggregates the allocator behaviour behind Fig. 8.
type Stats struct {
	// AllocsByClass counts allocations per slab class.
	AllocsByClass []int64
	// LiveByClass is the current number of live segments per class.
	LiveByClass []int64
}

// Allocator is the software slab allocator. Not safe for concurrent use;
// PHP requests are process-private (§4.2), so each simulated request
// context owns one.
type Allocator struct {
	free     [][]uint64 // per-class free lists (LIFO)
	live     [][]uint64 // per class, word k holds refill chunk k's live-bits
	huge     map[uint64]struct{}
	nextHuge uint64
	obs      Observer
	stats    Stats

	// timeline sampling for Fig. 8b/c
	sampleEvery int
	opCount     int64
	timeline    []Sample
}

// Sample is one point of the live-memory timeline (Fig. 8b/c): live bytes
// in each of the four smallest 32-byte slab bands plus everything larger.
type Sample struct {
	Op    int64
	Bands [5]int64 // 0-32, 32-64, 64-96, 96-128, >128 bytes
}

// NewAllocator creates an allocator. obs may be nil. sampleEvery sets the
// timeline sampling period in operations (0 disables sampling).
func NewAllocator(obs Observer, sampleEvery int) *Allocator {
	a := &Allocator{
		free:        make([][]uint64, len(sizeClasses)),
		live:        make([][]uint64, len(sizeClasses)),
		huge:        make(map[uint64]struct{}),
		nextHuge:    regionBase(len(sizeClasses)),
		obs:         obs,
		sampleEvery: sampleEvery,
	}
	a.stats.AllocsByClass = make([]int64, len(sizeClasses))
	a.stats.LiveByClass = make([]int64, len(sizeClasses))
	return a
}

// Alloc returns a block of at least size bytes.
func (a *Allocator) Alloc(size int) Block {
	c := ClassFor(size)
	if c < 0 {
		if a.obs != nil {
			a.obs.OnHuge(size)
		}
		addr := a.nextHuge
		a.nextHuge += (uint64(size) + 15) &^ 15
		a.huge[addr] = struct{}{}
		a.tick()
		return Block{Addr: addr, Class: -1, Size: size}
	}
	if len(a.free[c]) == 0 {
		a.refill(c)
	}
	fl := a.free[c]
	addr := fl[len(fl)-1]
	a.free[c] = fl[:len(fl)-1]
	a.MarkLive(addr, c)
	if a.obs != nil {
		a.obs.OnAlloc(c)
	}
	return Block{Addr: addr, Class: c, Size: size}
}

// Free returns a block to its slab free list. Freeing an address that is
// not live panics: that is allocator corruption, not a recoverable error.
func (a *Allocator) Free(b Block) {
	if b.Class < 0 {
		if _, ok := a.huge[b.Addr]; !ok {
			panic(fmt.Sprintf("heap: double free or wild free of %#x", b.Addr))
		}
		delete(a.huge, b.Addr) // back to the kernel
		a.tick()
		return
	}
	a.MarkDead(b.Addr, b.Class)
	a.free[b.Class] = append(a.free[b.Class], b.Addr)
	if a.obs != nil {
		a.obs.OnFree(b.Class)
	}
}

// segment locates the live-bit of the class-c segment at addr: the word
// of its refill chunk and the bit within it. An address that is no
// carved segment of class c panics.
func (a *Allocator) segment(addr uint64, c int) (int, uint64) {
	if uint(c) < uint(len(sizeClasses)) && addr>>regionShift == uint64(c+1) {
		off, size := addr-regionBase(c), uint64(sizeClasses[c])
		if i := off / size; i*size == off && i/chunkSegments < uint64(len(a.live[c])) {
			return int(i / chunkSegments), 1 << (i % chunkSegments)
		}
	}
	panic(fmt.Sprintf("heap: %#x is no segment of class %d (wild free or class mismatch)", addr, c))
}

// PopFree removes up to n segment addresses from class c's free list and
// appends them to dst, returning the extended slice (append semantics —
// steady-state callers pass a reused buffer and pay no allocation). This
// is the refill source the hardware heap manager's prefetcher pulls from
// (§4.3). It refills from a fresh chunk if empty.
func (a *Allocator) PopFree(c int, n int, dst []uint64) []uint64 {
	if len(a.free[c]) < n {
		a.refill(c)
	}
	fl := a.free[c]
	if n > len(fl) {
		n = len(fl)
	}
	dst = append(dst, fl[len(fl)-n:]...)
	a.free[c] = fl[:len(fl)-n]
	return dst
}

// PushFree returns segment addresses to class c's free list; the hardware
// heap manager's flush/overflow path uses it (§4.3 lazy writeback).
func (a *Allocator) PushFree(c int, addrs []uint64) {
	a.free[c] = append(a.free[c], addrs...)
}

// MarkLive registers addr as a live allocation of class c on behalf of the
// hardware heap manager, preserving the no-double-alloc invariant across
// the hardware/software boundary.
func (a *Allocator) MarkLive(addr uint64, c int) {
	w, bit := a.segment(addr, c)
	if a.live[c][w]&bit != 0 {
		panic(fmt.Sprintf("heap: address %#x already live (class %d)", addr, c))
	}
	a.live[c][w] |= bit
	a.stats.AllocsByClass[c]++
	a.stats.LiveByClass[c]++
	a.tick()
}

// MarkDead unregisters a live allocation on behalf of the hardware heap
// manager. The address stays owned by the hardware free list until it is
// flushed back via PushFree.
func (a *Allocator) MarkDead(addr uint64, c int) {
	w, bit := a.segment(addr, c)
	if a.live[c][w]&bit == 0 {
		panic(fmt.Sprintf("heap: double free of %#x", addr))
	}
	a.live[c][w] &^= bit
	a.stats.LiveByClass[c]--
	a.tick()
}

// Timeline returns the sampled live-memory series (Fig. 8b/c).
func (a *Allocator) Timeline() []Sample { return a.timeline }

// CumulativeSmallFraction returns, per slab class, the cumulative fraction
// of all slab allocations served by classes 0..c (Fig. 8a).
func (a *Allocator) CumulativeSmallFraction() []float64 {
	var total int64
	for _, n := range a.stats.AllocsByClass {
		total += n
	}
	out := make([]float64, len(sizeClasses))
	var run int64
	for c, n := range a.stats.AllocsByClass {
		run += n
		if total > 0 {
			out[c] = float64(run) / float64(total)
		}
	}
	return out
}

// refill carves class c's next chunk of its region and its live-bits.
func (a *Allocator) refill(c int) {
	if a.obs != nil {
		a.obs.OnRefill(c, chunkSegments)
	}
	seg := uint64(sizeClasses[c])
	base := regionBase(c) + uint64(len(a.live[c]))*chunkSegments*seg
	a.live[c] = append(a.live[c], 0)
	for i := chunkSegments - 1; i >= 0; i-- {
		a.free[c] = append(a.free[c], base+uint64(i)*seg)
	}
}

func (a *Allocator) tick() {
	a.opCount++
	if a.sampleEvery <= 0 || a.opCount%int64(a.sampleEvery) != 0 {
		return
	}
	var s Sample
	s.Op = a.opCount
	for c := range sizeClasses {
		bytes := a.stats.LiveByClass[c] * int64(sizeClasses[c])
		switch {
		case sizeClasses[c] <= 32:
			s.Bands[0] += bytes
		case sizeClasses[c] <= 64:
			s.Bands[1] += bytes
		case sizeClasses[c] <= 96:
			s.Bands[2] += bytes
		case sizeClasses[c] <= 128:
			s.Bands[3] += bytes
		default:
			s.Bands[4] += bytes
		}
	}
	a.timeline = append(a.timeline, s)
}
