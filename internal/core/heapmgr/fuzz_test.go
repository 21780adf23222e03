package heapmgr

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/heap"
)

// FuzzHeapSequence decodes its input, three bytes per operation (an
// opcode byte and a 16-bit argument), into a sequence over one hardware
// heap manager and the software allocator behind it, and checks every
// step against a plain map model of the live blocks: no address is live
// twice, every illegal free panics and changes nothing, and the
// allocator's per-class live counts and sampled live-byte timeline
// (Fig. 8b/c) equal the model's. Seed corpus:
// testdata/fuzz/FuzzHeapSequence/; `make fuzz-smoke` runs it.
func FuzzHeapSequence(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		sw := heap.NewAllocator(nil, 1)
		h := New(DefaultConfig(), sw)
		free := [2]func(heap.Block){func(b heap.Block) { h.Free(b) }, sw.Free}
		m := &model{live: map[uint64]heap.Block{}, byClass: make([]int64, heap.NumClasses())}
		for i := 0; i+2 < len(ops); i += 3 {
			arg := int(ops[i+1])<<8 | int(ops[i+2])
			switch ops[i] % numOps {
			case opMalloc:
				b, _ := h.Malloc(arg % (maxFuzzSize + 1))
				m.alloc(t, b)
			case opSWAlloc:
				m.alloc(t, sw.Alloc(arg%(maxFuzzSize+1)))
			case opFree, opSWFree:
				if len(m.order) == 0 {
					continue
				}
				free[ops[i]%numOps-opFree](m.take(arg))
			case opFlush:
				h.Flush()
			case opDoubleFree:
				if len(m.order) == 0 {
					continue
				}
				b := m.take(arg)
				free[arg&1](b)
				mustPanic(t, "double free", b, free[arg>>1&1])
			case opForeignFree:
				// A block that is not live as given: a live block 8 bytes
				// off, or with another class, or an address far away.
				nc := heap.NumClasses() + 1 // classes -1 (huge) .. NumClasses-1
				b := heap.Block{Addr: uint64(arg) << 32, Class: arg%nc - 1}
				if len(m.order) > 0 && arg&1 == 0 {
					live := m.order[arg%len(m.order)]
					if b.Addr = live.Addr; arg>>2&1 == 1 {
						b.Addr += 8
						b.Class = live.Class
					} else if b.Class == live.Class {
						b.Class = (b.Class+2)%nc - 1
					}
				}
				if live, ok := m.live[b.Addr]; ok && live.Class == b.Class {
					continue
				}
				b.Size = maxFuzzSize
				if b.Class >= 0 {
					b.Size = heap.ClassSize(b.Class)
				}
				mustPanic(t, "foreign free", b, free[arg>>1&1])
			}
			m.check(t, sw)
		}
	})
}

// The operations FuzzHeapSequence decodes (opcode byte mod numOps).
const (
	opMalloc      = iota // hmmalloc of arg % (maxFuzzSize+1) bytes
	opFree               // hmfree of the (arg % live)-th live block
	opSWFree             // software Free of the (arg % live)-th live block
	opSWAlloc            // software Alloc of arg % (maxFuzzSize+1) bytes
	opFlush              // hmflush
	opDoubleFree         // a legal free, then the same block again
	opForeignFree        // a free of a block that is not live as given
	numOps
)

// maxFuzzSize reaches past the slab classes into kernel-direct blocks.
const maxFuzzSize = 4200

// model is the map the fuzzer checks the heap against.
type model struct {
	live     map[uint64]heap.Block
	order    []heap.Block // the live blocks, for "the k-th live block"
	byClass  []int64
	timeline []heap.Sample
}

func (m *model) alloc(t *testing.T, b heap.Block) {
	t.Helper()
	if _, dup := m.live[b.Addr]; dup {
		t.Fatalf("address %#x handed out while live", b.Addr)
	}
	if b.Class != heap.ClassFor(b.Size) {
		t.Fatalf("block %+v: class for its size is %d", b, heap.ClassFor(b.Size))
	}
	m.live[b.Addr] = b
	m.order = append(m.order, b)
	m.count(b.Class, 1)
}

// take removes the (k % live)-th live block from the model and returns it
// for the caller to free.
func (m *model) take(k int) heap.Block {
	k %= len(m.order)
	b := m.order[k]
	m.order[k] = m.order[len(m.order)-1]
	m.order = m.order[:len(m.order)-1]
	delete(m.live, b.Addr)
	m.count(b.Class, -1)
	return b
}

// count applies one malloc (+1) or free (-1) of class c and samples the
// timeline, as the allocator does once per operation.
func (m *model) count(c int, d int64) {
	if c >= 0 {
		m.byClass[c] += d
	}
	s := heap.Sample{Op: int64(len(m.timeline) + 1)}
	for c, n := range m.byClass {
		size := heap.ClassSize(c)
		s.Bands[min((size-1)/32, len(s.Bands)-1)] += n * int64(size)
	}
	m.timeline = append(m.timeline, s)
}

func (m *model) check(t *testing.T, sw *heap.Allocator) {
	t.Helper()
	if got := liveByClass(sw); !slices.Equal(got, m.byClass) {
		t.Fatalf("LiveByClass = %v, model %v", got, m.byClass)
	}
	tl := sw.Timeline()
	if len(tl) != len(m.timeline) || len(tl) > 0 && tl[len(tl)-1] != m.timeline[len(tl)-1] {
		t.Fatalf("timeline has %d samples ending %v, model %d ending %v",
			len(tl), tl[max(len(tl)-1, 0):], len(m.timeline), m.timeline[max(len(m.timeline)-1, 0):])
	}
}

// liveByClass reads the allocator's private per-class live counts, the
// counter the Fig. 8b/c timeline is sampled from; heap exports no reader
// for it because no binary needs one.
func liveByClass(sw *heap.Allocator) []int64 {
	v := reflect.ValueOf(sw).Elem().FieldByName("stats").FieldByName("LiveByClass")
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.Index(i).Int()
	}
	return out
}

func mustPanic(t *testing.T, what string, b heap.Block, free func(heap.Block)) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s of %+v did not panic", what, b)
		}
	}()
	free(b)
}
