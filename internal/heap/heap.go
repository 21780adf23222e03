// Package heap implements the VM's software dynamic memory manager using
// the slab allocation technique the paper describes (§4.3): the VM
// allocates large chunks of memory, breaks them into fixed-size segments
// according to each slab class's size, and keeps the segment pointers in
// per-class free lists.
//
// The allocator simulates an address space (blocks are modeled addresses,
// no real memory is handed out) while enforcing real allocator invariants:
// no double allocation, no double free, free-list integrity. It records
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
	// FreesByClass counts deallocations per slab class.
	FreesByClass []int64
	// LiveByClass is the current number of live segments per class.
	LiveByClass []int64
	// PeakLiveBytesByClass is the high-water mark of live bytes per class.
	PeakLiveBytesByClass []int64
	// Refills counts slab refills (kernel involvement).
	Refills int64
	// HugeAllocs counts kernel-direct allocations.
	HugeAllocs int64
}

// Allocator is the software slab allocator. Not safe for concurrent use;
// PHP requests are process-private (§4.2), so each simulated request
// context owns one.
type Allocator struct {
	free     [][]uint64 // per-class free lists (LIFO)
	live     map[uint64]int
	nextAddr uint64
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
		live:        make(map[uint64]int),
		nextAddr:    0x10000,
		obs:         obs,
		sampleEvery: sampleEvery,
	}
	a.stats.AllocsByClass = make([]int64, len(sizeClasses))
	a.stats.FreesByClass = make([]int64, len(sizeClasses))
	a.stats.LiveByClass = make([]int64, len(sizeClasses))
	a.stats.PeakLiveBytesByClass = make([]int64, len(sizeClasses))
	return a
}

// Alloc returns a block of at least size bytes.
func (a *Allocator) Alloc(size int) Block {
	defer a.tick()
	c := ClassFor(size)
	if c < 0 {
		a.stats.HugeAllocs++
		if a.obs != nil {
			a.obs.OnHuge(size)
		}
		addr := a.carve(uint64(size))
		a.live[addr] = -1
		return Block{Addr: addr, Class: -1, Size: size}
	}
	if len(a.free[c]) == 0 {
		a.refill(c)
	}
	fl := a.free[c]
	addr := fl[len(fl)-1]
	a.free[c] = fl[:len(fl)-1]
	a.live[addr] = c
	a.stats.AllocsByClass[c]++
	a.stats.LiveByClass[c]++
	liveBytes := a.stats.LiveByClass[c] * int64(sizeClasses[c])
	if liveBytes > a.stats.PeakLiveBytesByClass[c] {
		a.stats.PeakLiveBytesByClass[c] = liveBytes
	}
	if a.obs != nil {
		a.obs.OnAlloc(c)
	}
	return Block{Addr: addr, Class: c, Size: size}
}

// Free returns a block to its slab free list. Freeing an address that is
// not live panics: that is allocator corruption, not a recoverable error.
func (a *Allocator) Free(b Block) {
	defer a.tick()
	c, ok := a.live[b.Addr]
	if !ok {
		panic(fmt.Sprintf("heap: double free or wild free of %#x", b.Addr))
	}
	if c != b.Class {
		panic(fmt.Sprintf("heap: block %#x freed with class %d, allocated as %d", b.Addr, b.Class, c))
	}
	delete(a.live, b.Addr)
	if c < 0 {
		return // huge block goes back to the kernel
	}
	a.free[c] = append(a.free[c], b.Addr)
	a.stats.FreesByClass[c]++
	a.stats.LiveByClass[c]--
	if a.obs != nil {
		a.obs.OnFree(c)
	}
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
	if old, ok := a.live[addr]; ok {
		panic(fmt.Sprintf("heap: address %#x already live (class %d)", addr, old))
	}
	a.live[addr] = c
	a.stats.AllocsByClass[c]++
	a.stats.LiveByClass[c]++
	liveBytes := a.stats.LiveByClass[c] * int64(sizeClasses[c])
	if liveBytes > a.stats.PeakLiveBytesByClass[c] {
		a.stats.PeakLiveBytesByClass[c] = liveBytes
	}
	a.tick()
}

// MarkDead unregisters a live allocation on behalf of the hardware heap
// manager. The address stays owned by the hardware free list until it is
// flushed back via PushFree.
func (a *Allocator) MarkDead(addr uint64, c int) {
	got, ok := a.live[addr]
	if !ok || got != c {
		panic(fmt.Sprintf("heap: MarkDead of non-live %#x (class %d)", addr, c))
	}
	delete(a.live, addr)
	a.stats.FreesByClass[c]++
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

func (a *Allocator) refill(c int) {
	a.stats.Refills++
	if a.obs != nil {
		a.obs.OnRefill(c, chunkSegments)
	}
	seg := uint64(sizeClasses[c])
	base := a.carve(seg * chunkSegments)
	for i := chunkSegments - 1; i >= 0; i-- {
		a.free[c] = append(a.free[c], base+uint64(i)*seg)
	}
}

// carve allocates address space for a new chunk, 16-byte aligned.
func (a *Allocator) carve(size uint64) uint64 {
	addr := a.nextAddr
	a.nextAddr += (size + 15) &^ 15
	return addr
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
