package workload

import (
	"bytes"
	"testing"

	"repro/internal/hashmap"
	"repro/internal/strlib"
)

// kernelTap is a strlib Observer and Allocator that keeps the result
// buffer of every htmlspecialchars and nl2br call a render makes: the op
// is reported first, and the next allocation is the kernel's result.
type kernelTap struct {
	op    strlib.Op
	armed bool
	outs  []kernelCall
}

// kernelCall is one expansion-kernel call: its op and its subject (or,
// while tapping, its result).
type kernelCall struct {
	op    strlib.Op
	bytes []byte
}

func (t *kernelTap) OnStringOp(op strlib.Op, _ int) {
	t.op, t.armed = op, op == strlib.OpHTMLSpecial || op == strlib.OpNL2BR
}

func (t *kernelTap) Make(n int) []byte { t.armed = false; return make([]byte, n) }

func (t *kernelTap) Buf(c int) []byte {
	b := make([]byte, 0, c)
	if t.armed {
		t.outs = append(t.outs, kernelCall{t.op, b[:c]})
		t.armed = false
	}
	return b
}

// unexpand inverts one kernel result back to its subject.
func unexpand(op strlib.Op, out []byte) []byte {
	if op == strlib.OpNL2BR {
		return bytes.ReplaceAll(out, []byte("<br />"), nil)
	}
	var s []byte
	for i := 0; i < len(out); i++ {
		c := out[i]
		if c == '&' {
			for _, e := range []struct{ ent, raw string }{{"&amp;", "&"}, {"&lt;", "<"}, {"&gt;", ">"}, {"&quot;", `"`}} {
				if bytes.HasPrefix(out[i:], []byte(e.ent)) {
					c, i = e.raw[0], i+len(e.ent)-1
					break
				}
			}
		}
		s = append(s, c)
	}
	return s
}

// wordpressKernelCalls renders one steady-state WordPress page on a
// software core and returns the subject of every call it made to the
// expansion kernel, in order, each checked to expand back to the bytes
// the render produced.
func wordpressKernelCalls(tb testing.TB) []kernelCall {
	p, err := NewPool(1, swConfig(), "wordpress", 1)
	if err != nil {
		tb.Fatal(err)
	}
	p.Run(LoadGenerator{Warmup: 20}, 0)
	w := p.Acquire()
	defer p.Release(w)
	tap := &kernelTap{}
	cpu := w.Runtime().CPU()
	saved := cpu.Lib
	cpu.Lib = strlib.Lib{Obs: tap, Mem: tap}
	w.ServeOne()
	cpu.Lib = saved
	var l strlib.Lib
	calls := make([]kernelCall, len(tap.outs))
	for i, c := range tap.outs {
		calls[i] = kernelCall{c.op, unexpand(c.op, c.bytes)}
		if got := l.Expand(c.op, calls[i].bytes); !bytes.Equal(got, c.bytes) {
			tb.Fatalf("call %d (op %d) does not expand back to the render's bytes", i, c.op)
		}
	}
	return calls
}

// reuseMem hands out one buffer over and over, as a request arena does
// between resets, so the benchmark times the kernel and not the heap.
type reuseMem struct{ buf []byte }

func (m *reuseMem) Make(n int) []byte { return m.Buf(n)[:n] }

func (m *reuseMem) Buf(c int) []byte {
	if cap(m.buf) < c {
		m.buf = make([]byte, c)
	}
	return m.buf[:0:c]
}

// BenchmarkRenderKernels times the two host kernels a WordPress render
// leans on, over that render's own inputs: Expand over every
// htmlspecialchars and nl2br subject of one page (one op is one page's
// calls), and Key.Hash over every key of the static key tables, as the
// tables hold them (hash cached by StrKey) and spelled without the cache
// (FNV-1a over the bytes at every call).
func BenchmarkRenderKernels(b *testing.B) {
	calls := wordpressKernelCalls(b)
	var subjectBytes int
	for _, c := range calls {
		subjectBytes += len(c.bytes)
	}
	var keys []hashmap.Key
	for _, t := range [][]hashmap.Key{optionKeys, templateVars, attrKeys, metaKeys} {
		keys = append(keys, t...)
	}
	b.Run("Expand", func(b *testing.B) {
		l := strlib.Lib{Mem: &reuseMem{}}
		b.SetBytes(int64(subjectBytes))
		b.ReportMetric(float64(len(calls)), "calls/op")
		for i := 0; i < b.N; i++ {
			for _, c := range calls {
				l.Expand(c.op, c.bytes)
			}
		}
	})
	var sink uint64
	for _, sp := range []struct {
		name  string
		spell func(hashmap.Key) hashmap.Key
	}{
		{"KeyHash", func(k hashmap.Key) hashmap.Key { return k }},
		{"KeyHashUncached", func(k hashmap.Key) hashmap.Key { return hashmap.Key{Str: k.Str} }},
	} {
		spelled := make([]hashmap.Key, len(keys))
		for i, k := range keys {
			spelled[i] = sp.spell(k)
		}
		b.Run(sp.name, func(b *testing.B) {
			b.ReportMetric(float64(len(spelled)), "keys/op")
			for i := 0; i < b.N; i++ {
				for _, k := range spelled {
					sink += k.Hash()
				}
			}
		})
	}
	if sink == 1 {
		b.Log(sink)
	}
}
