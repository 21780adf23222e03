// Package vm is the PHP-like runtime the workloads execute on — the Go
// stand-in for HHVM in the paper's evaluation stack. It binds the
// software substrates (dynamic values, ordered hash maps, slab heap,
// string library, regex engine) and the four accelerators behind one
// Runtime API, meters every operation through the trace-driven cost
// model, and records an operation trace.
//
// The accelerators are semantically invisible by design principle (a) of
// §4.1: a Runtime with every accelerator enabled renders byte-identical
// output to a software-only Runtime (modulo the whitespace padding that
// content sifting is explicitly allowed to insert by the HTML spec).
package vm

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/hashmap"
	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/regex"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config assembles a Runtime.
type Config struct {
	// Features selects the accelerators (zero = software-only core).
	Features isa.Features
	// Mitigations selects the §3 prior-work optimizations.
	Mitigations sim.Mitigations
	// Model is the cost model; zero value selects the default.
	Model sim.CostModel
	// TraceCapacity bounds the in-memory operation trace: 0 keeps every
	// event, N > 0 the most recent N, -1 none — every event is counted by
	// kind and none is built or kept (the serving configuration).
	TraceCapacity int
	// HeapSampleEvery sets the allocator timeline sampling period for
	// Fig. 8 (0 disables).
	HeapSampleEvery int
	// ArenaRetain bounds the request arena's chunk bytes retained across
	// BeginRequest resets (0 = retain everything; phpserve exposes it as
	// -arenacap). The arena itself is always on — it backs every string
	// result the runtime produces, mirroring PHP's request-scoped memory.
	ArenaRetain int
}

// ConfigNames lists the core configurations the paper compares, in its
// order: stock HHVM, the §3 prior-work mitigations, and the mitigations
// plus all four accelerators.
var ConfigNames = []string{"baseline", "mitigated", "accelerated"}

// ConfigByName returns the named core configuration (see ConfigNames),
// the one mapping behind every binary's -config choice and comparison
// table. Trace, heap-sampling and arena settings are the caller's.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "baseline":
		return Config{}, nil
	case "mitigated":
		return Config{Mitigations: sim.AllMitigations()}, nil
	case "accelerated":
		return Config{Mitigations: sim.AllMitigations(), Features: isa.AllAccelerators()}, nil
	}
	return Config{}, fmt.Errorf("unknown core config %q (want baseline, mitigated, or accelerated)", name)
}

// Runtime is one simulated PHP execution context (one worker).
//
// Memory ownership: every byte slice the runtime's string operations
// return (EscapeHTML, Replace, Concat, chain Apply, ...) is carved from
// a per-request arena that BeginRequest resets. Such results are valid
// only until the owner's next BeginRequest; anything that must outlive
// the request must be copied to the ordinary heap first.
type Runtime struct {
	cpu *isa.CPU
	rec *trace.Recorder
	// mem is the request arena backing string results; reset by
	// BeginRequest.
	mem *arena.Arena
	// strFree recycles Str handles request to request (PHP's strong
	// request-scoped reuse, §4.3); FreeStr pushes, NewStr pops.
	strFree []*Str
	// arrFree recycles Array structures the same way; FreeArray pushes
	// (after the accelerator has invalidated the map), NewArray pops and
	// resets the map under a fresh identity.
	arrFree []*Array

	// spans is the current request's span-tree builder. It is non-nil
	// only while a sampled request is being served (the worker attaches
	// it before the render and detaches it after), so on the unsampled
	// path every hook costs a single nil check.
	spans *obs.TreeBuilder

	regexMgr   *hashmap.Map // the regexp manager's pattern -> FSM hash map
	requestSeq uint64

	regexLookups int64 // regexp manager cache probes
	regexHits    int64 // probes that found a compiled FSM
}

// New builds a Runtime.
func New(cfg Config) *Runtime {
	if cfg.Model.IPC == 0 {
		cfg.Model = sim.DefaultCostModel()
	}
	meter := sim.NewMeter(cfg.Model)
	meter.Mit = cfg.Mitigations
	cpu := isa.New(meter, cfg.Features, cfg.HeapSampleEvery)
	r := &Runtime{cpu: cpu, mem: arena.New(0, cfg.ArenaRetain)}
	cpu.SetMem(r.mem)
	r.rec = trace.NewRecorder(cfg.TraceCapacity)
	r.regexMgr = cpu.NewMap()
	return r
}

// Arena exposes the request arena so the owning worker can carve
// request-lifetime scratch from it (same reset discipline applies).
func (r *Runtime) Arena() *arena.Arena { return r.mem }

// CPU exposes the simulated core.
func (r *Runtime) CPU() *isa.CPU { return r.cpu }

// Meter exposes the cost meter.
func (r *Runtime) Meter() *sim.Meter { return r.cpu.Meter }

// Trace returns the recorded operation trace.
func (r *Runtime) Trace() *trace.Recorder { return r.rec }

// SetSpans attaches (or, with nil, detaches) the span-tree builder for
// the request about to be served. Only the worker that owns this runtime
// may call it, and only between requests.
func (r *Runtime) SetSpans(b *obs.TreeBuilder) { r.spans = b }

// Tracing reports whether a span-tree builder is attached. Callers use
// it to skip building dynamic span names (string concatenation) on the
// unsampled path.
func (r *Runtime) Tracing() bool { return r.spans != nil }

// BeginSpan opens a named span in the current request's tree. It is safe
// to call unconditionally: with no builder attached (every unsampled
// request) it is a single nil check.
func (r *Runtime) BeginSpan(name string) { r.spans.Begin(name) }

// EndSpan closes the innermost open span. A nil builder makes it a no-op.
func (r *Runtime) EndSpan() { r.spans.End() }

// record traces one operation (see trace.Event for the fields' meaning
// per kind). A counting recorder takes only the kind: no Event is built.
func (r *Runtime) record(k trace.Kind, fn string, a, b, c uint64) {
	if r.rec.Counting() {
		r.rec.Count(k)
		return
	}
	r.rec.Record(trace.Event{Kind: k, Fn: fn, A: a, B: b, C: c})
}

// BeginRequest marks a request boundary in the trace and returns its
// sequence number. It also resets the request arena: every byte slice a
// string operation returned during the previous request becomes invalid
// here (its backing memory will be handed out again).
func (r *Runtime) BeginRequest() uint64 {
	r.mem.Reset()
	r.requestSeq++
	r.record(trace.KindRequest, "request", r.requestSeq, 0, 0)
	return r.requestSeq
}

// ContextSwitch models preemption of this worker (accelerator flush
// protocol, §4.6).
func (r *Runtime) ContextSwitch() { r.cpu.ContextSwitch() }

// --- Arrays (PHP hash maps) ---

// Array is a PHP array handle: the ordered hash map plus its heap
// allocation.
type Array struct {
	m     *hashmap.Map
	block heap.Block
	freed bool
}

// Map exposes the underlying ordered hash map.
func (a *Array) Map() *hashmap.Map { return a.m }

// NewArray allocates a PHP array (the map structure itself comes from the
// heap, as in the VM). The structure is recycled from the runtime's free
// list when one is available: the simulated work — heap Malloc, map
// identity assignment, trace event — is identical either way, only the Go
// allocation is saved.
func (r *Runtime) NewArray(fn string) *Array {
	b := r.cpu.Malloc(fn, 96) // MixedArray header-sized allocation
	var a *Array
	if n := len(r.arrFree); n > 0 {
		a = r.arrFree[n-1]
		r.arrFree[n-1] = nil
		r.arrFree = r.arrFree[:n-1]
		r.cpu.ResetMap(a.m)
		a.block = b
		a.freed = false
	} else {
		a = &Array{m: r.cpu.NewMap(), block: b}
	}
	r.record(trace.KindAlloc, fn, b.Addr, uint64(b.Size), 0)
	return a
}

// FreeArray deallocates the array: the accelerator invalidates its
// entries through the RTT and the heap reclaims the structure. The Go
// structure goes on the runtime's free list — the *Array must not be
// used after this call (the freed flag catches double frees, and a
// recycled structure would otherwise alias a later array).
func (r *Runtime) FreeArray(fn string, a *Array) {
	if a.freed {
		panic("vm: double free of array")
	}
	a.freed = true
	r.record(trace.KindFree, fn, a.block.Addr, uint64(a.block.Size), 0)
	r.cpu.HashFree(fn, a.m)
	r.cpu.Free(fn, a.block)
	r.arrFree = append(r.arrFree, a)
}

// AGet reads a key. dynamic marks dynamic key names that software methods
// cannot specialize (§4.2).
func (r *Runtime) AGet(fn string, a *Array, k hashmap.Key, dynamic bool) (interface{}, bool) {
	v, ok := r.cpu.HashGet(fn, a.m, k, !dynamic)
	dyn := uint64(0)
	if dynamic {
		dyn = 1
	}
	r.record(trace.KindHashGet, fn, a.m.ID(), uint64(k.Len()), dyn)
	return v, ok
}

// ASet writes a key.
func (r *Runtime) ASet(fn string, a *Array, k hashmap.Key, v interface{}, dynamic bool) {
	r.cpu.HashSet(fn, a.m, k, v, !dynamic)
	dyn := uint64(0)
	if dynamic {
		dyn = 1
	}
	r.record(trace.KindHashSet, fn, a.m.ID(), uint64(k.Len()), dyn)
}

// ADelete removes a key (PHP unset).
func (r *Runtime) ADelete(fn string, a *Array, k hashmap.Key) bool {
	r.record(trace.KindHashDelete, fn, a.m.ID(), uint64(k.Len()), 0)
	return r.cpu.HashDelete(fn, a.m, k)
}

// ASize returns the array's element count, flushing hardware-buffered
// inserts first so the software size field is current (PHP count() and
// array truthiness).
func (r *Runtime) ASize(fn string, a *Array) int {
	return r.cpu.HashSize(fn, a.m)
}

// AForeach iterates in insertion order (PHP foreach).
func (r *Runtime) AForeach(fn string, a *Array, f func(k hashmap.Key, v interface{}) bool) {
	r.record(trace.KindHashIterate, fn, a.m.ID(), 0, 0)
	r.cpu.HashForeach(fn, a.m, f)
}

// Extract implements the PHP extract command: it imports every key/value
// pair of src into the symbol table dst using dynamic key names — the
// access pattern the paper highlights as unspecializable in software.
func (r *Runtime) Extract(fn string, dst *Array, src *Array) int {
	n := 0
	r.AForeach(fn, src, func(k hashmap.Key, v interface{}) bool {
		r.ASet(fn, dst, k, v, true)
		n++
		return true
	})
	return n
}

// --- Strings (heap-backed) ---

// Str is a PHP string handle: the bytes (explicit length, never
// NUL-terminated) plus the heap block backing them. Handles are recycled through the runtime's free list, so a
// handle is only valid between its NewStr and the matching FreeStr.
type Str struct {
	b     []byte
	block heap.Block
	freed bool
}

// Bytes exposes the string contents.
func (s *Str) Bytes() []byte { return s.b }

// NewStr allocates a PHP string object holding b (not copied). The
// handle comes from the runtime's free list when one is available —
// the simulated Malloc charge is identical either way.
func (r *Runtime) NewStr(fn string, b []byte) *Str {
	size := len(b) + 16 // header + payload
	blk := r.cpu.Malloc(fn, size)
	r.record(trace.KindAlloc, fn, blk.Addr, uint64(size), 0)
	var s *Str
	if n := len(r.strFree); n > 0 {
		s = r.strFree[n-1]
		r.strFree = r.strFree[:n-1]
	} else {
		s = &Str{}
	}
	s.b = b
	s.block = blk
	s.freed = false
	return s
}

// FreeStr releases a string object and recycles its handle.
func (r *Runtime) FreeStr(fn string, s *Str) {
	if s.freed {
		panic("vm: double free of string")
	}
	s.freed = true
	r.record(trace.KindFree, fn, s.block.Addr, uint64(s.block.Size), 0)
	r.cpu.Free(fn, s.block)
	r.strFree = append(r.strFree, s)
}

// --- Regex manager ---

// Regex compiles (or fetches from the regexp manager's hash map) a
// pattern. The manager shares patterns and FSM tables with other
// functions through a hash map accessed with dynamic key names (§4.2);
// that lookup is attributed to the manager itself, the compile to the
// caller. Failed compiles are cached too (negative caching): an invalid
// pattern pays pcre_compile once and its error is replayed from the
// manager afterwards, so one bad pattern in a hot path cannot defeat
// the cache.
func (r *Runtime) Regex(fn, pattern string) (*regex.Regex, error) {
	const mgrFn = "regex_cache_lookup"
	k := hashmap.StrKey(pattern)
	v, ok := r.cpu.HashGet(mgrFn, r.regexMgr, k, true)
	r.record(trace.KindHashGet, mgrFn, r.regexMgr.ID(), uint64(k.Len()), 1)
	r.regexLookups++
	if ok {
		r.regexHits++
		if err, bad := v.(error); bad {
			return nil, err
		}
		return v.(*regex.Regex), nil
	}
	r.spans.Begin("regex:compile")
	re, err := r.cpu.RegexCompile(fn, pattern)
	r.spans.End()
	if err != nil {
		r.cpu.HashSet(mgrFn, r.regexMgr, k, err, true)
		r.record(trace.KindHashSet, mgrFn, r.regexMgr.ID(), uint64(k.Len()), 1)
		return nil, err
	}
	r.cpu.HashSet(mgrFn, r.regexMgr, k, re, true)
	r.record(trace.KindHashSet, mgrFn, r.regexMgr.ID(), uint64(k.Len()), 1)
	return re, nil
}

// RegexCacheStats returns how many regexp manager cache probes this
// runtime has made and how many found an already-compiled FSM. The hit
// ratio is an observability signal: a cold or thrashing pattern cache
// shows up as repeated pcre_compile charges in the regex category.
func (r *Runtime) RegexCacheStats() (lookups, hits int64) {
	return r.regexLookups, r.regexHits
}

// MustRegex is Regex for statically known patterns.
func (r *Runtime) MustRegex(fn, pattern string) *regex.Regex {
	re, err := r.Regex(fn, pattern)
	if err != nil {
		panic(err)
	}
	return re
}
