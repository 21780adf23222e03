package php

import (
	"errors"
	"fmt"

	"repro/internal/hashmap"
	"repro/internal/sim"
)

// Modeled dispatch costs for the bytecode engine. A threaded opcode
// costs half an interpreter uop against the tree-walker's 1–4 per AST
// node, and a compiled prologue costs 4 against the tree-walker's 8 —
// this is the §3 "future core" interpreter-overhead reduction, and it is
// what separates the two engines' CatOther cycles (and the Fig. 1
// profile gauges).
const (
	bcUopsPerInstr    = 0.5
	bcCallEntryUops   = 4
	bcTypeMissPenalty = 2 // generic-dispatch uops when type feedback misses
)

// bcMachine is one Interp's mutable bytecode execution state: the
// shared value stack, the slot/loop/iterator stacks (windowed per
// activation), and this worker's inline-cache and type-feedback tables.
type bcMachine struct {
	stack []Value
	sp    int
	slots []Value
	loops []int
	iters []bcIter

	ics []icSite
	tfs []tfSite

	icHits, icMisses   int64
	megamorphic        int64 // sites that overflowed their ways (cumulative marks)
	tfStable, tfMisses int64
}

// bcIter is a foreach iterator over a snapshot of the array's pairs in
// insertion order (PHP iterates a copy). Popped iterators keep their
// slices for the next foreach at the same depth.
type bcIter struct {
	keys []hashmap.Key
	vals []Value
	idx  int
}

func newBCMachine(c *Compiled) *bcMachine {
	return &bcMachine{
		ics: make([]icSite, c.numICs),
		tfs: make([]tfSite, c.numTFs),
	}
}

func (m *bcMachine) push(v Value) {
	if m.sp == len(m.stack) {
		m.stack = append(m.stack, v)
		m.sp++
		return
	}
	m.stack[m.sp] = v
	m.sp++
}

func (m *bcMachine) pop() Value {
	m.sp--
	v := m.stack[m.sp]
	m.stack[m.sp] = null
	return v
}

// popN drops the top n values (post-call argument cleanup).
func (m *bcMachine) popN(n int) {
	clear(m.stack[m.sp-n : m.sp])
	m.sp -= n
}

// enter opens an activation's windows — nSlots null slots and nLoops
// loop counters — and returns their bases.
func (m *bcMachine) enter(fn *compiledFn) (sbase, lbase, ibase, spBase int) {
	sbase, lbase, ibase, spBase = len(m.slots), len(m.loops), len(m.iters), m.sp
	for i := 0; i < fn.nSlots; i++ {
		m.slots = append(m.slots, null)
	}
	for i := 0; i < fn.nLoops; i++ {
		m.loops = append(m.loops, 0)
	}
	return
}

// leave closes the activation enter opened.
func (m *bcMachine) leave(sbase, lbase, ibase, spBase int) {
	clear(m.slots[sbase:])
	m.slots = m.slots[:sbase]
	m.loops = m.loops[:lbase]
	m.iters = m.iters[:ibase]
	m.popN(m.sp - spBase)
}

// bcCall invokes a compiled function: depth check, tracing span, a slot
// window for locals, then the opcode loop. args may alias the caller's
// stack; they are copied into slots before anything else executes.
func (in *Interp) bcCall(fn *compiledFn, args []Value) (Value, error) {
	if in.depth >= maxCallDepth {
		return null, fmt.Errorf("php: call depth limit exceeded in %s", fn.name)
	}
	in.depth++
	if in.rt.Tracing() { // skip the name concat on the unsampled path
		in.rt.BeginSpan("php:" + fn.name)
	}
	m := in.bc
	sbase, lbase, ibase, spBase := m.enter(fn)
	for i, p := range fn.params {
		if i < len(args) {
			m.slots[sbase+int(p)] = args[i]
		}
	}
	ret, err := in.bcExec(fn, sbase, lbase, ibase)
	m.leave(sbase, lbase, ibase, spBase)
	if in.rt.Tracing() {
		in.rt.EndSpan()
	}
	in.depth--
	return ret, err
}

// bcRunMain executes the compiled script main as one request, mirroring
// the tree-walking Run: reset output buffer, preset globals, owned
// arrays freed at teardown.
func (in *Interp) bcRunMain() ([]byte, error) {
	in.beginRequest()
	defer in.endRequest()
	m := in.bc
	fn := in.comp.main
	sbase, lbase, ibase, spBase := m.enter(fn)
	for k, v := range in.preset {
		if s, ok := fn.slotOf[k]; ok {
			m.slots[sbase+int(s)] = v
		}
	}
	in.rt.BeginSpan("php:exec")
	_, err := in.bcExec(fn, sbase, lbase, ibase)
	in.rt.EndSpan()
	m.leave(sbase, lbase, ibase, spBase)
	if err != nil {
		return nil, err
	}
	return in.ob.Bytes(), nil
}

// bcExec is the opcode loop. Every array/string/regexp operation goes
// through the same vm.Runtime calls as the tree-walker, so accelerator
// and mitigation accounting is identical; only the interpreter-dispatch
// charge differs (one batched CatOther flush per activation).
func (in *Interp) bcExec(fn *compiledFn, sbase, lbase, ibase int) (ret Value, err error) {
	m := in.bc
	name := fn.name
	code := fn.code
	ni := 0
	extra := 0.0
	defer func() {
		in.rt.Meter().AddUops(name, sim.CatOther, bcCallEntryUops+float64(ni)*bcUopsPerInstr+extra)
	}()
	for pc := 0; pc < len(code); pc++ {
		ins := code[pc]
		ni++
		switch ins.op {
		case opConst:
			m.push(fn.consts[ins.a])
		case opLoadVar:
			m.push(m.slots[sbase+int(ins.a)])
		case opStoreVar:
			m.slots[sbase+int(ins.a)] = m.pop()
		case opDup:
			m.push(m.stack[m.sp-1])
		case opPop:
			m.pop()
		case opJump:
			pc = int(ins.a) - 1
		case opJumpIfFalse:
			if !in.truthy(name, m.pop()) {
				pc = int(ins.a) - 1
			}
		case opAndJump:
			if !in.truthy(name, m.pop()) {
				m.push(boolV(false))
				pc = int(ins.a) - 1
			}
		case opOrJump:
			if in.truthy(name, m.pop()) {
				m.push(boolV(true))
				pc = int(ins.a) - 1
			}
		case opToBool:
			m.push(boolV(in.truthy(name, m.pop())))
		case opNot:
			m.push(boolV(!in.truthy(name, m.pop())))
		case opNeg:
			m.push(negate(m.pop()))
		case opBinary:
			r := m.pop()
			l := m.pop()
			if ins.b >= 0 {
				// Type feedback: a site observing the same operand-type
				// pair as last time runs as one (checked-load-elidable)
				// type check; a changing site pays generic dispatch.
				tag := uint16(l.K)<<8 | uint16(r.K)
				s := &m.tfs[ins.b]
				if s.seen && s.pair == tag {
					m.tfStable++
					in.rt.Meter().AddTypeCheck(1)
				} else {
					s.pair, s.seen = tag, true
					m.tfMisses++
					extra += bcTypeMissPenalty
				}
			}
			switch binKind(ins.a) {
			case bkConcat:
				m.push(in.concat(name, l, r))
			case bkAdd:
				m.push(arith("+", l, r))
			case bkSub:
				m.push(arith("-", l, r))
			case bkMul:
				m.push(arith("*", l, r))
			case bkDiv:
				m.push(arith("/", l, r))
			case bkMod:
				m.push(arith("%", l, r))
			case bkEq:
				m.push(boolV(looseEq(l, r)))
			case bkNe:
				m.push(boolV(!looseEq(l, r)))
			case bkSeq:
				m.push(boolV(strictEq(l, r)))
			case bkSne:
				m.push(boolV(!strictEq(l, r)))
			case bkLt:
				m.push(boolV(compare(l, r) < 0))
			case bkGt:
				m.push(boolV(compare(l, r) > 0))
			case bkLe:
				m.push(boolV(compare(l, r) <= 0))
			case bkGe:
				m.push(boolV(compare(l, r) >= 0))
			case bkCmp:
				m.push(Int(int64(compare(l, r))))
			}
		case opEcho:
			in.ob.WriteString(in.str(m.pop()))
		case opInlineHTML:
			in.ob.WriteString(fn.consts[ins.a].S)
		case opIndexNil:
			switch v := m.stack[m.sp-1]; v.K {
			case kArray, kString:
				// fall through to the key code
			case kNull:
				pc = int(ins.a) - 1 // the null stays as the read's result
			default:
				return null, fmt.Errorf("php: line %d: cannot index %s", ins.line, goType[v.K])
			}
		case opIndexGet:
			key := m.pop()
			switch subj := m.pop(); subj.K {
			case kArray:
				k, kerr := key.key()
				if kerr != nil {
					return null, kerr
				}
				v, _ := in.rt.AGet(name, subj.A, k, m.dynamic(ins, k))
				m.push(Value(v))
			case kString:
				m.push(strIndex(subj.S, key))
			}
		case opVivCheck:
			switch v := m.pop(); v.K {
			case kArray:
				m.push(v)
				pc = int(ins.a) - 1
			case kNull:
				m.push(arrV(in.newArray(name))) // auto-vivification
			default:
				return null, fmt.Errorf("php: line %d: cannot index non-array", ins.line)
			}
		case opStoreIndex:
			key := m.pop()
			arr := m.pop().A
			val := m.pop()
			k, kerr := key.key()
			if kerr != nil {
				return null, kerr
			}
			in.rt.ASet(name, arr, k, hashmap.Value(val), m.dynamic(ins, k))
		case opAppendSet:
			arr := m.pop().A
			val := m.pop()
			in.rt.ASet(name, arr, hashmap.IntKey(arr.NextIntKey()), hashmap.Value(val), false)
		case opCombine:
			cur := m.pop()
			val := m.pop()
			switch combineKind(ins.a) {
			case ckConcat:
				m.push(in.concat(name, cur, val))
			case ckAdd:
				m.push(arith("+", cur, val))
			case ckSub:
				m.push(arith("-", cur, val))
			case ckMul:
				m.push(arith("*", cur, val))
			case ckDiv:
				m.push(arith("/", cur, val))
			}
		case opIncDec:
			m.push(incDec(m.pop(), int64(ins.a)))
		case opNewArray:
			m.push(arrV(in.newArray(name)))
		case opArrAppend:
			val := m.pop()
			arr := m.stack[m.sp-1].A
			in.rt.ASet(name, arr, hashmap.IntKey(arr.NextIntKey()), hashmap.Value(val), false)
		case opArrSet:
			key := m.pop()
			val := m.pop()
			arr := m.stack[m.sp-1].A
			k, kerr := key.key()
			if kerr != nil {
				return null, kerr
			}
			in.rt.ASet(name, arr, k, hashmap.Value(val), ins.b == 1)
		case opLoopInit:
			m.loops[lbase+int(ins.a)] = 0
		case opLoopTick:
			idx := lbase + int(ins.a)
			iter := m.loops[idx]
			m.loops[idx] = iter + 1
			if iter > 10_000_000 {
				kind := "while"
				if ins.b == 1 {
					kind = "for"
				}
				return null, fmt.Errorf("php: line %d: %s loop exceeded iteration limit", ins.line, kind)
			}
		case opForeachStart:
			subj := m.pop()
			if subj.K != kArray {
				return null, fmt.Errorf("php: line %d: foreach over non-array", ins.line)
			}
			if n := len(m.iters); n < cap(m.iters) {
				m.iters = m.iters[:n+1]
			} else {
				m.iters = append(m.iters, bcIter{})
			}
			it := &m.iters[len(m.iters)-1]
			it.keys, it.vals, it.idx = it.keys[:0], it.vals[:0], 0
			in.rt.AForeach(name, subj.A, func(k hashmap.Key, v hashmap.Value) bool {
				it.keys = append(it.keys, k)
				it.vals = append(it.vals, Value(v))
				return true
			})
		case opForeachNext:
			it := &m.iters[len(m.iters)-1]
			if it.idx >= len(it.keys) {
				m.iters = m.iters[:len(m.iters)-1]
				pc = int(ins.a) - 1
				break
			}
			k, v := it.keys[it.idx], it.vals[it.idx]
			it.idx++
			if keySlot := ins.b >> 16; keySlot > 0 {
				m.slots[sbase+int(keySlot)-1] = keyValue(k)
			}
			m.slots[sbase+int(ins.b&0xffff)] = v
		case opIterPop:
			m.iters = m.iters[:len(m.iters)-1]
		case opCallUser:
			argc := int(ins.b)
			callee := in.comp.fns[ins.a]
			v, cerr := in.bcCall(callee, m.stack[m.sp-argc:m.sp])
			if cerr != nil {
				return null, cerr
			}
			m.popN(argc)
			m.push(v)
		case opCallBuiltin:
			cs := fn.calls[ins.a]
			if cs.fn == nil {
				return null, fmt.Errorf("php: line %d: call to undefined function %s()", cs.node.line, cs.node.name)
			}
			argc := int(ins.b)
			if in.rt.Tracing() {
				in.rt.BeginSpan("php:" + cs.node.name)
			}
			v, cerr := cs.fn(in, name, cs.node, m.stack[m.sp-argc:m.sp])
			if in.rt.Tracing() {
				in.rt.EndSpan()
			}
			if cerr != nil {
				return null, cerr
			}
			m.popN(argc)
			m.push(v)
		case opIsSet:
			m.push(boolV(m.pop().K != kNull))
		case opUnsetVar:
			m.slots[sbase+int(ins.a)] = null
			m.push(null)
		case opUnsetSubj:
			if m.stack[m.sp-1].K != kArray {
				m.pop()
				m.push(null)
				pc = int(ins.a) - 1
			}
		case opADelete:
			key := m.pop()
			arr := m.pop().A
			k, kerr := key.key()
			if kerr != nil {
				return null, kerr
			}
			in.rt.ADelete(name, arr, k)
			m.push(null)
		case opExtract:
			v := m.pop()
			if v.K != kArray {
				m.push(Int(0))
				break
			}
			count := int64(0)
			in.rt.AForeach("extract", v.A, func(k hashmap.Key, v hashmap.Value) bool {
				if !k.IsInt {
					if s, ok := fn.slotOf[k.Str]; ok {
						m.slots[sbase+int(s)] = Value(v)
					}
					count++
				}
				return true
			})
			m.push(Int(count))
		case opReturn:
			return m.pop(), nil
		case opErr:
			return null, errors.New(fn.errs[ins.a])
		}
	}
	return null, nil
}

// dynamic reports whether the hash access ins makes with key k is a
// dynamic-key access: an IC hit at a dynamic site makes it monomorphic.
func (m *bcMachine) dynamic(ins instr, k hashmap.Key) bool {
	if ins.b != 1 {
		return false
	}
	return ins.a < 0 || k.IsInt || !m.ics[ins.a].lookupCounted(m, k.Str)
}

// lookupCounted is lookup plus hit/miss/megamorphic accounting.
func (s *icSite) lookupCounted(m *bcMachine, key string) bool {
	wasMega := s.mega
	if s.lookup(key) {
		m.icHits++
		return true
	}
	m.icMisses++
	if s.mega && !wasMega {
		m.megamorphic++
	}
	return false
}
