package php

import (
	"errors"
	"fmt"

	"repro/internal/hashmap"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Modeled dispatch costs for the bytecode tier. A threaded opcode costs
// half an interpreter uop against the tree-walker's 1–4 per AST node,
// and a compiled prologue costs 4 against the tree-walker's 8 — this is
// the §3 "future core" interpreter-overhead reduction, and it is what
// shifts CatOther cycles (and the Fig. 1 profile gauges) after tier-up.
const (
	bcUopsPerInstr    = 0.5
	bcCallEntryUops   = 4
	bcTypeMissPenalty = 2 // generic-dispatch uops when type feedback misses
)

// bcMachine is one Interp's mutable bytecode execution state: the
// shared value stack, the slot/loop/iterator stacks (windowed per
// activation), and this worker's inline-cache and type-feedback tables.
type bcMachine struct {
	stack []interface{}
	sp    int
	slots []interface{}
	loops []int
	iters []bcIter

	ics []icSite
	tfs []tfSite

	icHits, icMisses   int64
	megamorphic        int64 // sites that overflowed their ways (cumulative marks)
	tfStable, tfMisses int64
}

// bcIter is a foreach iterator over a snapshot of the array's pairs in
// insertion order (PHP iterates a copy).
type bcIter struct {
	keys []hashmap.Key
	vals []interface{}
	idx  int
}

func newBCMachine(c *Compiled) *bcMachine {
	return &bcMachine{
		ics: make([]icSite, c.numICs),
		tfs: make([]tfSite, c.numTFs),
	}
}

func (m *bcMachine) push(v interface{}) {
	if m.sp == len(m.stack) {
		m.stack = append(m.stack, v)
		m.sp++
		return
	}
	m.stack[m.sp] = v
	m.sp++
}

func (m *bcMachine) pop() interface{} {
	m.sp--
	v := m.stack[m.sp]
	m.stack[m.sp] = nil
	return v
}

// popN drops the top n values (post-call argument cleanup).
func (m *bcMachine) popN(n int) {
	for i := 0; i < n; i++ {
		m.sp--
		m.stack[m.sp] = nil
	}
}

// bcKey converts a value to an array key with the tree-walker's
// evalKey coercions.
func bcKey(v interface{}) (hashmap.Key, error) {
	switch k := v.(type) {
	case int64:
		return hashmap.IntKey(k), nil
	case bool:
		if k {
			return hashmap.IntKey(1), nil
		}
		return hashmap.IntKey(0), nil
	case float64:
		return hashmap.IntKey(int64(k)), nil
	case string:
		return hashmap.StrKey(k), nil
	case nil:
		return hashmap.StrKey(""), nil
	default:
		return hashmap.Key{}, fmt.Errorf("php: illegal array key type %T", v)
	}
}

// bcCall invokes a compiled function: depth check, tracing span, a slot
// window for locals, then the opcode loop. args may alias the caller's
// stack; they are copied into slots before anything else executes.
func (in *Interp) bcCall(fn *compiledFn, args []interface{}) (interface{}, error) {
	if in.depth >= maxCallDepth {
		return nil, fmt.Errorf("php: call depth limit exceeded in %s", fn.name)
	}
	in.depth++
	if in.rt.Tracing() { // skip the name concat on the unsampled path
		in.rt.BeginSpan("php:" + fn.name)
	}
	m := in.bc
	sbase, lbase, ibase, spBase := len(m.slots), len(m.loops), len(m.iters), m.sp
	for i := 0; i < fn.nSlots; i++ {
		m.slots = append(m.slots, nil)
	}
	for i := 0; i < fn.nLoops; i++ {
		m.loops = append(m.loops, 0)
	}
	for i, p := range fn.params {
		if i < len(args) {
			m.slots[sbase+int(p)] = args[i]
		}
	}
	ret, err := in.bcExec(fn, sbase, lbase, ibase)
	for i := sbase; i < len(m.slots); i++ {
		m.slots[i] = nil
	}
	m.slots = m.slots[:sbase]
	m.loops = m.loops[:lbase]
	m.iters = m.iters[:ibase]
	m.popN(m.sp - spBase)
	if in.rt.Tracing() {
		in.rt.EndSpan()
	}
	in.depth--
	return ret, err
}

// bcRunMain executes the compiled script main as one request, mirroring
// the tree-walking Run: fresh output buffer, preset globals, owned
// arrays freed at teardown.
func (in *Interp) bcRunMain() ([]byte, error) {
	in.rt.BeginRequest()
	in.ob = in.rt.NewOutputBuffer("php_main")
	in.owned = in.owned[:0]
	defer func() {
		for _, a := range in.owned {
			in.rt.FreeArray("php_main", a)
		}
		in.owned = in.owned[:0]
	}()
	m := in.bc
	fn := in.comp.main
	sbase, lbase, ibase, spBase := len(m.slots), len(m.loops), len(m.iters), m.sp
	for i := 0; i < fn.nSlots; i++ {
		m.slots = append(m.slots, nil)
	}
	for i := 0; i < fn.nLoops; i++ {
		m.loops = append(m.loops, 0)
	}
	for k, v := range in.preset {
		if s, ok := fn.slotOf[k]; ok {
			m.slots[sbase+int(s)] = v
		}
	}
	in.rt.BeginSpan("php:exec")
	_, err := in.bcExec(fn, sbase, lbase, ibase)
	in.rt.EndSpan()
	for i := sbase; i < len(m.slots); i++ {
		m.slots[i] = nil
	}
	m.slots = m.slots[:sbase]
	m.loops = m.loops[:lbase]
	m.iters = m.iters[:ibase]
	m.popN(m.sp - spBase)
	if err != nil {
		return nil, err
	}
	return in.ob.Bytes(), nil
}

// bcExec is the opcode loop. Every array/string/regexp operation goes
// through the same vm.Runtime calls as the tree-walker, so accelerator
// and mitigation accounting is identical; only the interpreter-dispatch
// charge differs (one batched CatOther flush per activation).
func (in *Interp) bcExec(fn *compiledFn, sbase, lbase, ibase int) (ret interface{}, err error) {
	m := in.bc
	f := frame{fn: fn.name}
	code := fn.code
	ni := 0
	extra := 0.0
	defer func() {
		in.rt.Meter().AddUops(fn.name, sim.CatOther, bcCallEntryUops+float64(ni)*bcUopsPerInstr+extra)
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
			if !in.truthy(&f, m.pop()) {
				pc = int(ins.a) - 1
			}
		case opAndJump:
			if !in.truthy(&f, m.pop()) {
				m.push(false)
				pc = int(ins.a) - 1
			}
		case opOrJump:
			if in.truthy(&f, m.pop()) {
				m.push(true)
				pc = int(ins.a) - 1
			}
		case opToBool:
			m.push(in.truthy(&f, m.pop()))
		case opNot:
			m.push(!in.truthy(&f, m.pop()))
		case opNeg:
			switch x := m.pop().(type) {
			case int64:
				m.push(-x)
			case float64:
				m.push(-x)
			default:
				m.push(-toFloat(x))
			}
		case opBinary:
			r := m.pop()
			l := m.pop()
			if ins.b >= 0 {
				// Type feedback: a site observing the same operand-type
				// pair as last time runs as one (checked-load-elidable)
				// type check; a changing site pays generic dispatch.
				tag := typeTag(l)<<8 | typeTag(r)
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
				m.push(in.concat(l, r, &f))
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
				m.push(looseEq(l, r))
			case bkNe:
				m.push(!looseEq(l, r))
			case bkSeq:
				m.push(strictEq(l, r))
			case bkSne:
				m.push(!strictEq(l, r))
			case bkLt:
				m.push(compare(l, r) < 0)
			case bkGt:
				m.push(compare(l, r) > 0)
			case bkLe:
				m.push(compare(l, r) <= 0)
			case bkGe:
				m.push(compare(l, r) >= 0)
			case bkCmp:
				m.push(int64(compare(l, r)))
			}
		case opEcho:
			in.ob.Write([]byte(in.toString(m.pop(), &f)))
		case opInlineHTML:
			in.ob.WriteString(fn.consts[ins.a].(string))
		case opIndexNil:
			switch v := m.stack[m.sp-1].(type) {
			case *vm.Array, string:
				// fall through to the key code
			case nil:
				pc = int(ins.a) - 1 // the nil stays as the read's result
			default:
				return nil, fmt.Errorf("php: line %d: cannot index %T", ins.line, v)
			}
		case opIndexGet:
			key := m.pop()
			switch subj := m.pop().(type) {
			case *vm.Array:
				k, kerr := bcKey(key)
				if kerr != nil {
					return nil, kerr
				}
				dynamic := ins.b == 1
				if dynamic && ins.a >= 0 && !k.IsInt {
					if m.ics[ins.a].lookupCounted(m, k.Str) {
						dynamic = false // IC hit: monomorphic access
					}
				}
				v, _ := in.rt.AGet(f.fn, subj, k, dynamic)
				m.push(v)
			case string:
				i := toInt(key)
				if i < 0 || i >= int64(len(subj)) {
					m.push("")
				} else {
					m.push(string(subj[i]))
				}
			}
		case opVivCheck:
			switch v := m.pop().(type) {
			case *vm.Array:
				m.push(v)
				pc = int(ins.a) - 1
			case nil:
				m.push(in.newArray(&f)) // auto-vivification
			default:
				return nil, fmt.Errorf("php: line %d: cannot index non-array", ins.line)
			}
		case opStoreIndex:
			key := m.pop()
			arr := m.pop().(*vm.Array)
			val := m.pop()
			k, kerr := bcKey(key)
			if kerr != nil {
				return nil, kerr
			}
			dynamic := ins.b == 1
			if dynamic && ins.a >= 0 && !k.IsInt {
				if m.ics[ins.a].lookupCounted(m, k.Str) {
					dynamic = false
				}
			}
			in.rt.ASet(f.fn, arr, k, val, dynamic)
		case opAppendSet:
			arr := m.pop().(*vm.Array)
			val := m.pop()
			in.rt.ASet(f.fn, arr, hashmap.IntKey(arr.Map().NextIntKey()), val, false)
		case opCombine:
			cur := m.pop()
			val := m.pop()
			switch combineKind(ins.a) {
			case ckConcat:
				m.push(in.concat(cur, val, &f))
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
			delta := int64(ins.a)
			switch x := m.pop().(type) {
			case int64:
				m.push(x + delta)
			case float64:
				m.push(x + float64(delta))
			case nil:
				m.push(delta)
			default:
				m.push(toInt(x) + delta)
			}
		case opNewArray:
			m.push(in.newArray(&f))
		case opArrAppend:
			val := m.pop()
			arr := m.stack[m.sp-1].(*vm.Array)
			in.rt.ASet(f.fn, arr, hashmap.IntKey(arr.Map().NextIntKey()), val, false)
		case opArrSet:
			key := m.pop()
			val := m.pop()
			arr := m.stack[m.sp-1].(*vm.Array)
			k, kerr := bcKey(key)
			if kerr != nil {
				return nil, kerr
			}
			in.rt.ASet(f.fn, arr, k, val, ins.b == 1)
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
				return nil, fmt.Errorf("php: line %d: %s loop exceeded iteration limit", ins.line, kind)
			}
		case opForeachStart:
			arr, ok := m.pop().(*vm.Array)
			if !ok {
				return nil, fmt.Errorf("php: line %d: foreach over non-array", ins.line)
			}
			var it bcIter
			in.rt.AForeach(f.fn, arr, func(k hashmap.Key, v interface{}) bool {
				it.keys = append(it.keys, k)
				it.vals = append(it.vals, v)
				return true
			})
			m.iters = append(m.iters, it)
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
			args := m.stack[m.sp-argc : m.sp]
			v, cerr := in.callFn(callee.decl, args)
			if cerr != nil {
				return nil, cerr
			}
			m.popN(argc)
			m.push(v)
		case opCallBuiltin:
			cs := fn.calls[ins.a]
			argc := int(ins.b)
			args := m.stack[m.sp-argc : m.sp]
			bfn, ok := builtins[cs.node.name]
			if !ok {
				return nil, fmt.Errorf("php: line %d: call to undefined function %s()", cs.node.line, cs.node.name)
			}
			if in.rt.Tracing() {
				in.rt.BeginSpan("php:" + cs.node.name)
			}
			v, cerr := bfn(in, &f, cs.node, args)
			if in.rt.Tracing() {
				in.rt.EndSpan()
			}
			if cerr != nil {
				return nil, cerr
			}
			m.popN(argc)
			m.push(v)
		case opIsSet:
			m.push(m.pop() != nil)
		case opUnsetVar:
			m.slots[sbase+int(ins.a)] = nil
			m.push(nil)
		case opUnsetSubj:
			v := m.pop()
			if arr, ok := v.(*vm.Array); ok {
				m.push(arr)
			} else {
				m.push(nil)
				pc = int(ins.a) - 1
			}
		case opADelete:
			key := m.pop()
			arr := m.pop().(*vm.Array)
			k, kerr := bcKey(key)
			if kerr != nil {
				return nil, kerr
			}
			in.rt.ADelete(f.fn, arr, k)
			m.push(nil)
		case opExtract:
			v := m.pop()
			arr, ok := v.(*vm.Array)
			if !ok {
				m.push(int64(0))
				break
			}
			count := int64(0)
			in.rt.AForeach("extract", arr, func(k hashmap.Key, v interface{}) bool {
				if !k.IsInt {
					if s, ok := fn.slotOf[k.Str]; ok {
						m.slots[sbase+int(s)] = v
					}
					count++
				}
				return true
			})
			m.push(count)
		case opReturn:
			return m.pop(), nil
		case opErr:
			return nil, errors.New(fn.errs[ins.a])
		}
	}
	return nil, nil
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
