package php

import (
	"fmt"

	"repro/internal/hashmap"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Interp executes a parsed Program against a vm.Runtime, so every array
// access, allocation, string function, and regexp the script performs is
// metered (and accelerated when the runtime has hardware).
type Interp struct {
	rt   *vm.Runtime
	prog *Program
	// ob is the response buffer, reset by every Run: the body Run returns
	// is valid until the next Run (workload.App's ownership contract).
	ob *vm.OutputBuffer

	globals frame
	depth   int
	preset  map[string]Value
	// frames recycles the tree-walker's variable maps, one per call depth;
	// args is its call-argument stack.
	frames []map[string]Value
	args   []Value

	// Content-locality tracking for consecutive regexps over the same
	// text: the dynamic equivalent of the paper's function-level dataflow
	// analysis (§4.5). When a preg_* call sees the content produced by
	// the previous one, it runs as a shadow under the cached hint vector.
	// The content is a copy: the hint outlives the request.
	lastContent []byte
	lastHV      *isa.HV
	// patterns holds each regexp pattern once, copied: the runtime's
	// regexp manager keeps it as a key across requests.
	patterns map[string]string

	// arrays allocated by the script, freed when Run returns (request
	// teardown, the short-lived map pattern).
	owned []*hashmap.Map

	// Bytecode engine (bcexec.go): the shared compiled program and this
	// worker's private execution machine (value stack, inline caches,
	// type feedback). nil bc runs the tree-walker. tiered turns the
	// snapshot on (tier.go); requests counts Run calls.
	comp     *Compiled
	bc       *bcMachine
	tiered   bool
	requests int64
}

// frame is one function activation's variable bindings. Plain-variable
// access models JIT frame slots (cheap); only symbol-table operations
// like extract() touch hash maps.
type frame struct {
	vars map[string]Value
	fn   string
}

// control is the non-local exit signal used for return/break/continue.
type control struct {
	kind controlKind
	val  Value
}

type controlKind uint8

const (
	ctrlNone controlKind = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// maxCallDepth bounds recursion.
const maxCallDepth = 128

// New prepares an interpreter for one program on one runtime.
func New(rt *vm.Runtime, prog *Program) *Interp {
	return &Interp{
		rt: rt, prog: prog,
		ob:      rt.NewOutputBuffer("php_main"),
		globals: frame{vars: map[string]Value{}, fn: "php_main"},
	}
}

// SetGlobal presets a global variable for subsequent Run calls — the
// host's way of injecting request parameters (PHP's superglobals).
func (in *Interp) SetGlobal(name string, v Value) {
	if in.preset == nil {
		in.preset = map[string]Value{}
	}
	in.preset[name] = v
}

// Run executes the script as one request and returns the response body,
// valid until the next Run.
func (in *Interp) Run() ([]byte, error) {
	in.requests++
	if in.bc != nil {
		return in.bcRunMain()
	}
	in.beginRequest()
	defer in.endRequest()
	clear(in.globals.vars)
	for k, v := range in.preset {
		in.globals.vars[k] = v
	}
	in.rt.BeginSpan("php:exec")
	ctl, err := in.execBlock(in.prog.stmts, &in.globals)
	in.rt.EndSpan()
	if err != nil {
		return nil, err
	}
	if ctl.kind == ctrlBreak || ctl.kind == ctrlContinue {
		return nil, fmt.Errorf("php: break/continue outside a loop")
	}
	return in.ob.Bytes(), nil
}

// beginRequest resets the runtime's request arena and the response
// buffer; both executors start a request here.
func (in *Interp) beginRequest() {
	in.rt.BeginRequest()
	in.ob.Reset("php_main")
	in.owned = in.owned[:0]
}

// endRequest is request teardown: script-allocated arrays are
// short-lived maps.
func (in *Interp) endRequest() {
	for _, a := range in.owned {
		in.rt.FreeArray("php_main", a)
	}
	in.owned = in.owned[:0]
}

// charge accounts interpreter/JIT dispatch work for one AST node.
func (in *Interp) charge(f *frame, uops float64) {
	in.rt.Meter().AddUops(f.fn, sim.CatOther, uops)
}

func (in *Interp) execBlock(stmts []stmt, f *frame) (control, error) {
	for _, s := range stmts {
		ctl, err := in.execStmt(s, f)
		if err != nil {
			return control{}, err
		}
		if ctl.kind != ctrlNone {
			return ctl, nil
		}
	}
	return control{}, nil
}

func (in *Interp) execStmt(s stmt, f *frame) (control, error) {
	switch n := s.(type) {
	case *inlineHTMLStmt:
		in.ob.WriteString(n.html)
		return control{}, nil
	case *echoStmt:
		in.charge(f, 4)
		for _, a := range n.args {
			v, err := in.eval(a, f)
			if err != nil {
				return control{}, err
			}
			in.ob.WriteString(in.str(v))
		}
		return control{}, nil
	case *exprStmt:
		in.charge(f, 2)
		_, err := in.eval(n.e, f)
		return control{}, err
	case *ifStmt:
		in.charge(f, 3)
		cond, err := in.eval(n.cond, f)
		if err != nil {
			return control{}, err
		}
		if in.truthy(f.fn, cond) {
			return in.execBlock(n.then, f)
		}
		return in.execBlock(n.els, f)
	case *whileStmt:
		for iter := 0; ; iter++ {
			if iter > 10_000_000 {
				return control{}, fmt.Errorf("php: line %d: while loop exceeded iteration limit", n.line)
			}
			in.charge(f, 3)
			cond, err := in.eval(n.cond, f)
			if err != nil {
				return control{}, err
			}
			if !in.truthy(f.fn, cond) {
				return control{}, nil
			}
			ctl, err := in.execBlock(n.body, f)
			if err != nil {
				return control{}, err
			}
			switch ctl.kind {
			case ctrlBreak:
				return control{}, nil
			case ctrlReturn:
				return ctl, nil
			}
		}
	case *forStmt:
		if n.init != nil {
			if _, err := in.eval(n.init, f); err != nil {
				return control{}, err
			}
		}
		for iter := 0; ; iter++ {
			if iter > 10_000_000 {
				return control{}, fmt.Errorf("php: line %d: for loop exceeded iteration limit", n.line)
			}
			in.charge(f, 3)
			if n.cond != nil {
				cond, err := in.eval(n.cond, f)
				if err != nil {
					return control{}, err
				}
				if !in.truthy(f.fn, cond) {
					return control{}, nil
				}
			}
			ctl, err := in.execBlock(n.body, f)
			if err != nil {
				return control{}, err
			}
			if ctl.kind == ctrlBreak {
				return control{}, nil
			}
			if ctl.kind == ctrlReturn {
				return ctl, nil
			}
			if n.post != nil {
				if _, err := in.eval(n.post, f); err != nil {
					return control{}, err
				}
			}
		}
	case *foreachStmt:
		subject, err := in.eval(n.subject, f)
		if err != nil {
			return control{}, err
		}
		if subject.K != kArray {
			return control{}, fmt.Errorf("php: line %d: foreach over non-array", n.line)
		}
		// Iterate a snapshot in insertion order (PHP iterates a copy).
		type pair struct {
			k hashmap.Key
			v Value
		}
		var pairs []pair
		in.rt.AForeach(f.fn, subject.A, func(k hashmap.Key, v hashmap.Value) bool {
			pairs = append(pairs, pair{k, Value(v)})
			return true
		})
		for _, kv := range pairs {
			in.charge(f, 3)
			if n.keyVar != "" {
				f.vars[n.keyVar] = keyValue(kv.k)
			}
			f.vars[n.valVar] = kv.v
			ctl, err := in.execBlock(n.body, f)
			if err != nil {
				return control{}, err
			}
			switch ctl.kind {
			case ctrlBreak:
				return control{}, nil
			case ctrlReturn:
				return ctl, nil
			}
		}
		return control{}, nil
	case *returnStmt:
		in.charge(f, 2)
		if n.val == nil {
			return control{kind: ctrlReturn}, nil
		}
		v, err := in.eval(n.val, f)
		if err != nil {
			return control{}, err
		}
		return control{kind: ctrlReturn, val: v}, nil
	case *breakStmt:
		return control{kind: ctrlBreak}, nil
	case *continueStmt:
		return control{kind: ctrlContinue}, nil
	case *funcDecl:
		return control{}, fmt.Errorf("php: line %d: nested function declarations unsupported", n.line)
	default:
		return control{}, fmt.Errorf("php: unknown statement %T", s)
	}
}

func (in *Interp) eval(e expr, f *frame) (Value, error) {
	switch n := e.(type) {
	case *litExpr:
		return n.val, nil
	case *varExpr:
		in.charge(f, 1)
		return f.vars[n.name], nil // undefined variables read as null
	case *assignExpr:
		return in.evalAssign(n, f)
	case *indexExpr:
		return in.evalIndex(n, f)
	case *binaryExpr:
		return in.evalBinary(n, f)
	case *unaryExpr:
		in.charge(f, 1)
		v, err := in.eval(n.e, f)
		if err != nil {
			return null, err
		}
		if n.op == "!" {
			return boolV(!in.truthy(f.fn, v)), nil
		}
		return negate(v), nil
	case *callExpr:
		return in.evalCall(n, f)
	case *arrayLit:
		return in.evalArrayLit(n, f)
	case *ternaryExpr:
		in.charge(f, 2)
		c, err := in.eval(n.cond, f)
		if err != nil {
			return null, err
		}
		if in.truthy(f.fn, c) {
			return in.eval(n.then, f)
		}
		return in.eval(n.els, f)
	case *incDecExpr:
		in.charge(f, 2)
		cur, err := in.eval(n.target, f)
		if err != nil {
			return null, err
		}
		delta := int64(1)
		if n.op == "--" {
			delta = -1
		}
		next := incDec(cur, delta)
		if err := in.store(n.target, next, f); err != nil {
			return null, err
		}
		return next, nil
	default:
		return null, fmt.Errorf("php: unknown expression %T", e)
	}
}

// negate is unary minus: ints and floats keep their type, anything else
// goes through float.
func negate(v Value) Value {
	switch v.K {
	case kInt:
		return Int(-v.N)
	case kFloat:
		return floatV(-v.float())
	}
	return floatV(-v.toFloat())
}

// incDec is ++/-- by delta: null counts from 0, non-numbers go through int.
func incDec(v Value, delta int64) Value {
	switch v.K {
	case kInt:
		return Int(v.N + delta)
	case kFloat:
		return floatV(v.float() + float64(delta))
	case kNull:
		return Int(delta)
	}
	return Int(v.toInt() + delta)
}

func (in *Interp) evalAssign(n *assignExpr, f *frame) (Value, error) {
	in.charge(f, 2)
	val, err := in.eval(n.value, f)
	if err != nil {
		return null, err
	}
	if n.op != "=" {
		cur, err := in.eval(n.target, f)
		if err != nil {
			return null, err
		}
		switch n.op {
		case ".=":
			val = in.concat(f.fn, cur, val)
		case "+=":
			val = arith("+", cur, val)
		case "-=":
			val = arith("-", cur, val)
		case "*=":
			val = arith("*", cur, val)
		case "/=":
			val = arith("/", cur, val)
		}
	}
	if err := in.store(n.target, val, f); err != nil {
		return null, err
	}
	return val, nil
}

// store writes to a variable or array element target.
func (in *Interp) store(target expr, val Value, f *frame) error {
	switch t := target.(type) {
	case *varExpr:
		f.vars[t.name] = val
		return nil
	case *indexExpr:
		subject, err := in.eval(t.subject, f)
		if err != nil {
			return err
		}
		arr := subject.A
		if subject.K != kArray {
			// Auto-vivification: assigning into null creates an array.
			if subject.K != kNull {
				return fmt.Errorf("php: line %d: cannot index non-array", t.line)
			}
			arr = in.newArray(f.fn)
			if err := in.store(t.subject, arrV(arr), f); err != nil {
				return err
			}
		}
		if t.key == nil { // $a[] = v: PHP's next auto-index
			in.rt.ASet(f.fn, arr, hashmap.IntKey(arr.NextIntKey()), hashmap.Value(val), false)
			return nil
		}
		k, dynamic, err := in.evalKey(t.key, f)
		if err != nil {
			return err
		}
		in.rt.ASet(f.fn, arr, k, hashmap.Value(val), dynamic)
		return nil
	default:
		return fmt.Errorf("php: invalid assignment target %T", target)
	}
}

func (in *Interp) evalIndex(n *indexExpr, f *frame) (Value, error) {
	in.charge(f, 1)
	subject, err := in.eval(n.subject, f)
	if err != nil {
		return null, err
	}
	if n.key == nil {
		return null, fmt.Errorf("php: line %d: cannot read the append form $a[]", n.line)
	}
	switch subject.K {
	case kArray:
		k, dynamic, err := in.evalKey(n.key, f)
		if err != nil {
			return null, err
		}
		v, _ := in.rt.AGet(f.fn, subject.A, k, dynamic)
		return Value(v), nil
	case kString:
		kv, err := in.eval(n.key, f)
		if err != nil {
			return null, err
		}
		return strIndex(subject.S, kv), nil
	case kNull:
		return null, nil
	default:
		return null, fmt.Errorf("php: line %d: cannot index %s", n.line, goType[subject.K])
	}
}

// strIndex is $s[$i]: the byte at i, or "" out of range.
func strIndex(s string, i Value) Value {
	n := i.toInt()
	if n < 0 || n >= int64(len(s)) {
		return strV("")
	}
	return strV(s[n : n+1])
}

// evalKey computes an array key and whether it counts as a dynamic key
// name (anything but a literal — the distinction §4.2 builds on).
func (in *Interp) evalKey(e expr, f *frame) (hashmap.Key, bool, error) {
	_, isLit := e.(*litExpr)
	v, err := in.eval(e, f)
	if err != nil {
		return hashmap.Key{}, false, err
	}
	k, err := v.key()
	return k, !isLit, err
}

func (in *Interp) evalBinary(n *binaryExpr, f *frame) (Value, error) {
	// Short-circuit logical operators.
	if n.op == "&&" || n.op == "||" {
		in.charge(f, 1)
		l, err := in.eval(n.l, f)
		if err != nil {
			return null, err
		}
		if n.op == "&&" && !in.truthy(f.fn, l) {
			return boolV(false), nil
		}
		if n.op == "||" && in.truthy(f.fn, l) {
			return boolV(true), nil
		}
		r, err := in.eval(n.r, f)
		if err != nil {
			return null, err
		}
		return boolV(in.truthy(f.fn, r)), nil
	}
	in.charge(f, 1)
	l, err := in.eval(n.l, f)
	if err != nil {
		return null, err
	}
	r, err := in.eval(n.r, f)
	if err != nil {
		return null, err
	}
	switch n.op {
	case ".":
		return in.concat(f.fn, l, r), nil
	case "+", "-", "*", "/", "%":
		return arith(n.op, l, r), nil
	case "==":
		return boolV(looseEq(l, r)), nil
	case "!=":
		return boolV(!looseEq(l, r)), nil
	case "===":
		return boolV(strictEq(l, r)), nil
	case "!==":
		return boolV(!strictEq(l, r)), nil
	case "<", ">", "<=", ">=", "<=>":
		c := compare(l, r)
		switch n.op {
		case "<":
			return boolV(c < 0), nil
		case ">":
			return boolV(c > 0), nil
		case "<=":
			return boolV(c <= 0), nil
		case ">=":
			return boolV(c >= 0), nil
		default:
			return Int(int64(c)), nil
		}
	}
	return null, fmt.Errorf("php: line %d: unknown operator %q", n.line, n.op)
}

// concat runs string concatenation through the runtime so it is charged
// (and traced) as string work. Operands go in as views and the result
// comes back as one: the bytes are copied once, into the request arena.
func (in *Interp) concat(fn string, l, r Value) Value {
	return strV(hashmap.ViewOf(in.rt.Concat(fn, hashmap.BytesOf(in.str(l)), hashmap.BytesOf(in.str(r)))))
}

func (in *Interp) evalArrayLit(n *arrayLit, f *frame) (Value, error) {
	arr := in.newArray(f.fn)
	auto := int64(0)
	for i := range n.vals {
		v, err := in.eval(n.vals[i], f)
		if err != nil {
			return null, err
		}
		if n.keys[i] == nil {
			in.rt.ASet(f.fn, arr, hashmap.IntKey(auto), hashmap.Value(v), false)
			auto++
			continue
		}
		k, dynamic, err := in.evalKey(n.keys[i], f)
		if err != nil {
			return null, err
		}
		if k.IsInt && k.Int >= auto {
			auto = k.Int + 1
		}
		in.rt.ASet(f.fn, arr, k, hashmap.Value(v), dynamic)
	}
	return arrV(arr), nil
}

// newArray allocates a script array, owned by the request.
func (in *Interp) newArray(fn string) *hashmap.Map {
	a := in.rt.NewArray(fn)
	in.owned = append(in.owned, a)
	return a
}

// callUser invokes a user-declared function.
func (in *Interp) callUser(fd *funcDecl, args []Value) (Value, error) {
	if in.depth >= maxCallDepth {
		return null, fmt.Errorf("php: call depth limit exceeded in %s", fd.name)
	}
	if len(in.frames) <= in.depth {
		in.frames = append(in.frames, map[string]Value{})
	}
	local := frame{vars: in.frames[in.depth], fn: fd.name}
	clear(local.vars)
	in.depth++
	defer func() { in.depth-- }()
	if in.rt.Tracing() { // skip the name concat on the unsampled path
		in.rt.BeginSpan("php:" + fd.name)
		defer in.rt.EndSpan()
	}

	for i, p := range fd.params {
		if i < len(args) {
			local.vars[p] = args[i]
		}
	}
	// Call overhead: frame setup, arg shuffling.
	in.charge(&local, 8)
	ctl, err := in.execBlock(fd.body, &local)
	if err != nil {
		return null, err
	}
	if ctl.kind == ctrlReturn {
		return ctl.val, nil
	}
	return null, nil
}

// truthy applies PHP boolean conversion. Arrays go through the runtime
// size read so inserts still buffered in the hardware hash table count
// toward non-emptiness.
func (in *Interp) truthy(fn string, v Value) bool {
	if v.K == kArray {
		return in.rt.ASize(fn, v.A) > 0
	}
	return v.truthyScalar()
}
