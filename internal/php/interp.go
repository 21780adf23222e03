package php

import (
	"fmt"
	"strconv"

	"repro/internal/hashmap"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Values are represented as: nil, bool, int64, float64, string, and
// *vm.Array. Arrays are handles (reference semantics) rather than PHP's
// copy-on-write value semantics — a documented simplification; scripts in
// this repository treat arrays as objects.

// Interp executes a parsed Program against a vm.Runtime, so every array
// access, allocation, string function, and regexp the script performs is
// metered (and accelerated when the runtime has hardware).
type Interp struct {
	rt   *vm.Runtime
	prog *Program
	ob   *vm.OutputBuffer

	globals frame
	depth   int
	preset  map[string]interface{}

	// Content-locality tracking for consecutive regexps over the same
	// text: the dynamic equivalent of the paper's function-level dataflow
	// analysis (§4.5). When a preg_* call sees the content produced by
	// the previous one, it runs as a shadow under the cached hint vector.
	lastContent string
	lastHV      *isa.HV

	// arrays allocated by the script, freed when Run returns (request
	// teardown, the short-lived map pattern).
	owned []*vm.Array

	// Bytecode tier (tier.go / bcexec.go): the shared compiled program,
	// this worker's private execution machine (value stack, inline
	// caches, type feedback), and the promotion controller.
	comp *Compiled
	bc   *bcMachine
	tier *tierState
}

// frame is one function activation's variable bindings. Plain-variable
// access models JIT frame slots (cheap); only symbol-table operations
// like extract() touch hash maps.
type frame struct {
	vars map[string]interface{}
	fn   string
}

// control is the non-local exit signal used for return/break/continue.
type control struct {
	kind controlKind
	val  interface{}
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
	return &Interp{rt: rt, prog: prog}
}

// SetGlobal presets a global variable for subsequent Run calls — the
// host's way of injecting request parameters (PHP's superglobals).
func (in *Interp) SetGlobal(name string, v interface{}) {
	if in.preset == nil {
		in.preset = map[string]interface{}{}
	}
	in.preset[name] = v
}

// Run executes the script as one request and returns the response body.
func (in *Interp) Run() ([]byte, error) {
	if t := in.tier; t != nil {
		t.beginRequest()
		bc := in.useBytecode("php_main")
		t.count("php_main", bc)
		if bc {
			return in.bcRunMain()
		}
	}
	in.rt.BeginRequest()
	in.ob = in.rt.NewOutputBuffer("php_main")
	in.globals = frame{vars: map[string]interface{}{}, fn: "php_main"}
	for k, v := range in.preset {
		in.globals.vars[k] = v
	}
	in.owned = in.owned[:0]
	defer func() {
		// Request teardown: script-allocated arrays are short-lived maps.
		for _, a := range in.owned {
			in.rt.FreeArray(in.globals.fn, a)
		}
		in.owned = in.owned[:0]
	}()
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
			in.ob.Write([]byte(in.toString(v, f)))
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
		if in.truthy(f, cond) {
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
			if !in.truthy(f, cond) {
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
				if !in.truthy(f, cond) {
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
		arr, ok := subject.(*vm.Array)
		if !ok {
			return control{}, fmt.Errorf("php: line %d: foreach over non-array", n.line)
		}
		// Iterate a snapshot in insertion order (PHP iterates a copy).
		type pair struct {
			k hashmap.Key
			v interface{}
		}
		var pairs []pair
		in.rt.AForeach(f.fn, arr, func(k hashmap.Key, v interface{}) bool {
			pairs = append(pairs, pair{k, v})
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

func keyValue(k hashmap.Key) interface{} {
	if k.IsInt {
		return k.Int
	}
	return k.Str
}

func (in *Interp) eval(e expr, f *frame) (interface{}, error) {
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
			return nil, err
		}
		if n.op == "!" {
			return !in.truthy(f, v), nil
		}
		switch x := v.(type) {
		case int64:
			return -x, nil
		case float64:
			return -x, nil
		}
		return -toFloat(v), nil
	case *callExpr:
		return in.evalCall(n, f)
	case *arrayLit:
		return in.evalArrayLit(n, f)
	case *ternaryExpr:
		in.charge(f, 2)
		c, err := in.eval(n.cond, f)
		if err != nil {
			return nil, err
		}
		if in.truthy(f, c) {
			return in.eval(n.then, f)
		}
		return in.eval(n.els, f)
	case *incDecExpr:
		in.charge(f, 2)
		cur, err := in.eval(n.target, f)
		if err != nil {
			return nil, err
		}
		delta := int64(1)
		if n.op == "--" {
			delta = -1
		}
		var next interface{}
		switch x := cur.(type) {
		case int64:
			next = x + delta
		case float64:
			next = x + float64(delta)
		case nil:
			next = delta
		default:
			next = toInt(cur) + delta
		}
		if err := in.store(n.target, next, f); err != nil {
			return nil, err
		}
		return next, nil
	default:
		return nil, fmt.Errorf("php: unknown expression %T", e)
	}
}

func (in *Interp) evalAssign(n *assignExpr, f *frame) (interface{}, error) {
	in.charge(f, 2)
	val, err := in.eval(n.value, f)
	if err != nil {
		return nil, err
	}
	if n.op != "=" {
		cur, err := in.eval(n.target, f)
		if err != nil {
			return nil, err
		}
		switch n.op {
		case ".=":
			val = in.concat(cur, val, f)
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
		return nil, err
	}
	return val, nil
}

// store writes to a variable or array element target.
func (in *Interp) store(target expr, val interface{}, f *frame) error {
	switch t := target.(type) {
	case *varExpr:
		f.vars[t.name] = val
		return nil
	case *indexExpr:
		subject, err := in.eval(t.subject, f)
		if err != nil {
			return err
		}
		arr, ok := subject.(*vm.Array)
		if !ok {
			// Auto-vivification: assigning into null creates an array.
			if subject == nil {
				arr = in.newArray(f)
				if err := in.store(t.subject, arr, f); err != nil {
					return err
				}
			} else {
				return fmt.Errorf("php: line %d: cannot index non-array", t.line)
			}
		}
		if t.key == nil { // $a[] = v: PHP's next auto-index
			in.rt.ASet(f.fn, arr, hashmap.IntKey(arr.Map().NextIntKey()), val, false)
			return nil
		}
		k, dynamic, err := in.evalKey(t.key, f)
		if err != nil {
			return err
		}
		in.rt.ASet(f.fn, arr, k, val, dynamic)
		return nil
	default:
		return fmt.Errorf("php: invalid assignment target %T", target)
	}
}

func (in *Interp) evalIndex(n *indexExpr, f *frame) (interface{}, error) {
	in.charge(f, 1)
	subject, err := in.eval(n.subject, f)
	if err != nil {
		return nil, err
	}
	if n.key == nil {
		return nil, fmt.Errorf("php: line %d: cannot read the append form $a[]", n.line)
	}
	switch s := subject.(type) {
	case *vm.Array:
		k, dynamic, err := in.evalKey(n.key, f)
		if err != nil {
			return nil, err
		}
		v, _ := in.rt.AGet(f.fn, s, k, dynamic)
		return v, nil
	case string:
		kv, err := in.eval(n.key, f)
		if err != nil {
			return nil, err
		}
		i := toInt(kv)
		if i < 0 || i >= int64(len(s)) {
			return "", nil
		}
		return string(s[i]), nil
	case nil:
		return nil, nil
	default:
		return nil, fmt.Errorf("php: line %d: cannot index %T", n.line, subject)
	}
}

// evalKey computes an array key and whether it counts as a dynamic key
// name (anything but a literal — the distinction §4.2 builds on).
func (in *Interp) evalKey(e expr, f *frame) (hashmap.Key, bool, error) {
	_, isLit := e.(*litExpr)
	v, err := in.eval(e, f)
	if err != nil {
		return hashmap.Key{}, false, err
	}
	switch k := v.(type) {
	case int64:
		return hashmap.IntKey(k), !isLit, nil
	case bool:
		if k {
			return hashmap.IntKey(1), !isLit, nil
		}
		return hashmap.IntKey(0), !isLit, nil
	case float64:
		return hashmap.IntKey(int64(k)), !isLit, nil
	case string:
		return hashmap.StrKey(k), !isLit, nil
	case nil:
		return hashmap.StrKey(""), !isLit, nil
	default:
		return hashmap.Key{}, false, fmt.Errorf("php: illegal array key type %T", v)
	}
}

func (in *Interp) evalBinary(n *binaryExpr, f *frame) (interface{}, error) {
	// Short-circuit logical operators.
	if n.op == "&&" || n.op == "||" {
		in.charge(f, 1)
		l, err := in.eval(n.l, f)
		if err != nil {
			return nil, err
		}
		if n.op == "&&" && !in.truthy(f, l) {
			return false, nil
		}
		if n.op == "||" && in.truthy(f, l) {
			return true, nil
		}
		r, err := in.eval(n.r, f)
		if err != nil {
			return nil, err
		}
		return in.truthy(f, r), nil
	}
	in.charge(f, 1)
	l, err := in.eval(n.l, f)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(n.r, f)
	if err != nil {
		return nil, err
	}
	switch n.op {
	case ".":
		return in.concat(l, r, f), nil
	case "+", "-", "*", "/", "%":
		return arith(n.op, l, r), nil
	case "==":
		return looseEq(l, r), nil
	case "!=":
		return !looseEq(l, r), nil
	case "===":
		return strictEq(l, r), nil
	case "!==":
		return !strictEq(l, r), nil
	case "<", ">", "<=", ">=", "<=>":
		c := compare(l, r)
		switch n.op {
		case "<":
			return c < 0, nil
		case ">":
			return c > 0, nil
		case "<=":
			return c <= 0, nil
		case ">=":
			return c >= 0, nil
		default:
			return int64(c), nil
		}
	}
	return nil, fmt.Errorf("php: line %d: unknown operator %q", n.line, n.op)
}

// concat runs string concatenation through the runtime so it is charged
// (and traced) as string work.
func (in *Interp) concat(l, r interface{}, f *frame) string {
	return string(in.rt.Concat(f.fn, []byte(in.toString(l, f)), []byte(in.toString(r, f))))
}

func (in *Interp) evalArrayLit(n *arrayLit, f *frame) (interface{}, error) {
	arr := in.newArray(f)
	auto := int64(0)
	for i := range n.vals {
		v, err := in.eval(n.vals[i], f)
		if err != nil {
			return nil, err
		}
		if n.keys[i] == nil {
			in.rt.ASet(f.fn, arr, hashmap.IntKey(auto), v, false)
			auto++
			continue
		}
		k, dynamic, err := in.evalKey(n.keys[i], f)
		if err != nil {
			return nil, err
		}
		if k.IsInt && k.Int >= auto {
			auto = k.Int + 1
		}
		in.rt.ASet(f.fn, arr, k, v, dynamic)
	}
	return arr, nil
}

// newArray allocates a script array, owned by the request.
func (in *Interp) newArray(f *frame) *vm.Array {
	a := in.rt.NewArray(f.fn)
	in.owned = append(in.owned, a)
	return a
}

// callUser invokes a user-declared function.
func (in *Interp) callUser(fd *funcDecl, args []interface{}) (interface{}, error) {
	if in.depth >= maxCallDepth {
		return nil, fmt.Errorf("php: call depth limit exceeded in %s", fd.name)
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.rt.Tracing() { // skip the name concat on the unsampled path
		in.rt.BeginSpan("php:" + fd.name)
		defer in.rt.EndSpan()
	}

	local := frame{vars: map[string]interface{}{}, fn: fd.name}
	for i, p := range fd.params {
		if i < len(args) {
			local.vars[p] = args[i]
		}
	}
	// Call overhead: frame setup, arg shuffling.
	in.charge(&local, 8)
	ctl, err := in.execBlock(fd.body, &local)
	if err != nil {
		return nil, err
	}
	if ctl.kind == ctrlReturn {
		return ctl.val, nil
	}
	return nil, nil
}

// --- conversions and operators ---

// truthy applies PHP boolean conversion. Arrays go through the runtime
// size read so inserts still buffered in the hardware hash table count
// toward non-emptiness.
func (in *Interp) truthy(f *frame, v interface{}) bool {
	if a, ok := v.(*vm.Array); ok {
		return in.rt.ASize(f.fn, a) > 0
	}
	return truthyScalar(v)
}

func truthyScalar(v interface{}) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != "" && x != "0"
	default:
		return true
	}
}

func (in *Interp) toString(v interface{}, f *frame) string {
	switch x := v.(type) {
	case nil:
		return ""
	case bool:
		if x {
			return "1"
		}
		return ""
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'G', 14, 64)
	case string:
		return x
	case *vm.Array:
		return "Array"
	default:
		return fmt.Sprint(x)
	}
}

func toInt(v interface{}) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case bool:
		if x {
			return 1
		}
		return 0
	case int64:
		return x
	case float64:
		return int64(x)
	case string:
		n, _ := strconv.ParseInt(leadingInt(x), 10, 64)
		return n
	default:
		return 0
	}
}

func leadingInt(s string) string {
	i := 0
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		i++
	}
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return s[:i]
}

func toFloat(v interface{}) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	case string:
		f, _ := strconv.ParseFloat(x, 64)
		return f
	default:
		return float64(toInt(v))
	}
}

func isNumeric(v interface{}) bool {
	switch v.(type) {
	case int64, float64:
		return true
	}
	return false
}

func arith(op string, l, r interface{}) interface{} {
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri
		case "-":
			return li - ri
		case "*":
			return li * ri
		case "%":
			if ri == 0 {
				return int64(0)
			}
			return li % ri
		case "/":
			if ri != 0 && li%ri == 0 {
				return li / ri
			}
		}
	}
	lf, rf := toFloat(l), toFloat(r)
	switch op {
	case "+":
		return lf + rf
	case "-":
		return lf - rf
	case "*":
		return lf * rf
	case "/":
		if rf == 0 {
			return 0.0
		}
		return lf / rf
	case "%":
		ri := toInt(r)
		if ri == 0 {
			return int64(0)
		}
		return toInt(l) % ri
	}
	return nil
}

func looseEq(l, r interface{}) bool {
	ls, lIsStr := l.(string)
	rs, rIsStr := r.(string)
	if isNumeric(l) || isNumeric(r) {
		// PHP8-style: numeric vs numeric-string compares numerically;
		// otherwise string comparison.
		if (lIsStr && !numericString(ls)) || (rIsStr && !numericString(rs)) {
			return fmt.Sprint(l) == fmt.Sprint(r)
		}
		return toFloat(l) == toFloat(r)
	}
	// Two numeric strings compare numerically (PHP 8), keeping == and
	// the relational operators (compare) consistent: "10" == "1e1".
	if lIsStr && rIsStr && numericString(ls) && numericString(rs) {
		return toFloat(l) == toFloat(r)
	}
	return strictEq(l, r)
}

func numericString(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

func strictEq(l, r interface{}) bool {
	switch lv := l.(type) {
	case *vm.Array:
		rv, ok := r.(*vm.Array)
		return ok && lv == rv
	default:
		return l == r
	}
}

func compare(l, r interface{}) int {
	ls, lIsStr := l.(string)
	rs, rIsStr := r.(string)
	if lIsStr && rIsStr && !(numericString(ls) && numericString(rs)) {
		switch {
		case ls < rs:
			return -1
		case ls > rs:
			return 1
		}
		return 0
	}
	lf, rf := toFloat(l), toFloat(r)
	switch {
	case lf < rf:
		return -1
	case lf > rf:
		return 1
	}
	return 0
}
