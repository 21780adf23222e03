// Package isa models the ISA extensions the paper adds to invoke its
// tightly-coupled accelerators (§4.6) and the software fallback handlers
// behind their zero-flag semantics:
//
//	hashtableget / hashtableset     — hardware hash table GET/SET
//	hmmalloc / hmfree / hmflush     — hardware heap manager
//	stringop[op]                    — string accelerator, 6-bit opcode
//	strreadconfig / strwriteconfig  — matching matrix (re)configuration
//	regexp_sieve / regexp_shadow    — PCRE-replacing regexp APIs
//	regexlookup / regexset          — content reuse table access
//
// The CPU type dispatches each runtime operation either to an accelerator
// (charging its datapath cycles) or to the software substrate (charging
// the measured micro-op costs through the substrates' observer
// interfaces). Every charge is attributed to a leaf function and activity
// category on the sim.Meter, reproducing the paper's trace-driven
// accounting.
package isa

import (
	"repro/internal/core/hashtable"
	"repro/internal/core/heapmgr"
	"repro/internal/core/regexaccel"
	"repro/internal/core/straccel"
	"repro/internal/hashmap"
	"repro/internal/heap"
	"repro/internal/sim"
	"repro/internal/strlib"
)

// Features selects which accelerators the simulated core has, with their
// configurations. The zero value is a plain software core.
type Features struct {
	HashTable   bool
	HeapManager bool
	StringAccel bool
	RegexAccel  bool

	HTConfig hashtable.Config
	HMConfig heapmgr.Config
	SAConfig straccel.Config
	RAConfig regexaccel.Config
}

// AllAccelerators enables every accelerator at its paper configuration.
func AllAccelerators() Features {
	return Features{
		HashTable:   true,
		HeapManager: true,
		StringAccel: true,
		RegexAccel:  true,
		HTConfig:    hashtable.DefaultConfig(),
		HMConfig:    heapmgr.DefaultConfig(),
		SAConfig:    straccel.DefaultConfig(),
		RAConfig:    regexaccel.DefaultConfig(),
	}
}

// CPU is one simulated core: the cost meter, the software substrates, and
// whatever accelerators the Features enabled. It is not safe for
// concurrent use.
type CPU struct {
	Meter *sim.Meter

	HT *hashtable.Table
	HM *heapmgr.Manager
	SA *straccel.Accel
	RA *regexaccel.Accel

	Alloc *heap.Allocator
	Lib   strlib.Lib

	curFn     string
	curCat    sim.Category
	mute      bool   // suppress substrate observer charges (IC-specialized path)
	nextMapID uint64 // per-core map identity counter (deterministic under concurrency)
	rebuilds  int64  // stale-index rebuilds across this core's maps
}

// New builds a CPU with the given meter and features. The software heap
// allocator samples its timeline every sampleEvery ops (0 disables).
func New(meter *sim.Meter, feats Features, sampleEvery int) *CPU {
	c := &CPU{Meter: meter}
	c.Alloc = heap.NewAllocator((*heapObs)(c), sampleEvery)
	c.Lib = strlib.Lib{Obs: (*strObs)(c)}
	if feats.HashTable {
		c.HT = hashtable.New(feats.HTConfig)
	}
	if feats.HeapManager {
		c.HM = heapmgr.New(feats.HMConfig, c.Alloc)
	}
	if feats.StringAccel {
		c.SA = straccel.New(feats.SAConfig)
	}
	if feats.RegexAccel {
		c.RA = regexaccel.New(feats.RAConfig)
	}
	return c
}

// SetMem routes string-result allocation — the software library's and
// every configured accelerator's — through m, typically the owning
// runtime's per-request arena. Results then follow m's lifetime; the
// simulated charges are unchanged.
func (c *CPU) SetMem(m strlib.Allocator) {
	c.Lib.Mem = m
	if c.SA != nil {
		c.SA.SetMem(m)
	}
	if c.RA != nil {
		c.RA.SetMem(m)
	}
}

// MapRebuilds returns how many stale-index rebuilds have occurred across
// every hash map created on this core (hashmap.Map.Rebuilds, aggregated).
// The paper notes these coherence events are exceedingly rare; the
// serving layer exports the counter so operators can confirm that.
func (c *CPU) MapRebuilds() int64 { return c.rebuilds }

// at sets the leaf-function attribution context for subsequent charges.
func (c *CPU) at(fn string, cat sim.Category) {
	c.curFn = fn
	c.curCat = cat
}

// NewMap creates a software hash map wired to this CPU's cost accounting.
// Map IDs are assigned per core so that concurrent workers (one core per
// goroutine) produce identical hardware hash-table behavior run to run.
func (c *CPU) NewMap() *hashmap.Map {
	c.nextMapID++
	return hashmap.NewWithID(c.nextMapID, (*mapObs)(c))
}

// ResetMap recycles a previously freed map under the next map ID this
// core would have assigned, exactly as if NewMap had built it fresh. The
// map must already have been freed through HashFree so the hardware hash
// table holds no state under its old identity.
func (c *CPU) ResetMap(m *hashmap.Map) {
	c.nextMapID++
	m.Reset(c.nextMapID)
}

// --- substrate observers (defined as converted receiver types so CPU
// can implement several Observer interfaces with distinct method sets) ---

type mapObs CPU

func (o *mapObs) OnWalk(op hashmap.Op, probes, keyBytes int, inserted bool) {
	c := (*CPU)(o)
	if c.mute {
		return
	}
	m := &c.Meter.Model
	switch op {
	case hashmap.OpIterate:
		// Ordered-table iteration: cheap per-entry work, no hashing.
		c.Meter.AddUops(c.curFn, c.curCat, 6*float64(probes)+12)
	default:
		uops := m.HashWalkCost(probes, keyBytes)
		if inserted {
			uops += m.HashInsertExtra
		}
		c.Meter.AddUops(c.curFn, c.curCat, uops)
	}
}

func (o *mapObs) OnResize(newSlots int) {
	c := (*CPU)(o)
	if c.mute {
		return
	}
	c.Meter.AddUops(c.curFn, c.curCat, c.Meter.Model.HashResizePerSlot*float64(newSlots))
}

func (o *mapObs) OnRebuild() {
	// Counted even when muted: a coherence rebuild is an observability
	// event regardless of which cost path triggered the access.
	(*CPU)(o).rebuilds++
}

type heapObs CPU

func (o *heapObs) OnAlloc(class int) {
	c := (*CPU)(o)
	c.Meter.AddUops(c.curFn, sim.CatHeap, c.Meter.Model.MallocUops)
}

func (o *heapObs) OnFree(class int) {
	c := (*CPU)(o)
	c.Meter.AddUops(c.curFn, sim.CatHeap, c.Meter.Model.FreeUops)
}

func (o *heapObs) OnRefill(class, segments int) {
	c := (*CPU)(o)
	uops := c.Meter.Model.KernelAllocUops
	if c.Meter.Mit.TunedAllocator {
		// §3: tuning reduces expensive allocation calls to the kernel.
		uops /= 8
	}
	c.Meter.AddUops("kernel_alloc", sim.CatKernel, uops)
}

func (o *heapObs) OnHuge(size int) {
	c := (*CPU)(o)
	uops := c.Meter.Model.KernelAllocUops
	if c.Meter.Mit.TunedAllocator {
		uops /= 8
	}
	c.Meter.AddUops("kernel_alloc", sim.CatKernel, uops)
}

type strObs CPU

func (o *strObs) OnStringOp(op strlib.Op, subjectBytes int) {
	c := (*CPU)(o)
	c.Meter.AddUops(c.curFn, sim.CatString, c.Meter.Model.StringCost(subjectBytes))
}

type regexObs CPU

func (o *regexObs) OnScan(n int) {
	c := (*CPU)(o)
	c.Meter.AddUops(c.curFn, sim.CatRegex, c.Meter.Model.RegexScanCost(n))
}

func (o *regexObs) OnCompile(states int) {
	c := (*CPU)(o)
	m := &c.Meter.Model
	c.Meter.AddUops("pcre_compile", sim.CatRegex, m.RegexCompileFixed+m.RegexCompilePerState*float64(states))
}
