package php

import (
	"fmt"
	"sort"
)

// Compile lowers a parsed program to bytecode. The result is immutable
// and safe to share across interpreters and goroutines; per-execution
// state (value stack, variable slots, inline caches) lives on each
// Interp. Compilation mirrors the tree-walker's evaluation order and
// error behavior exactly — constructs the tree-walker rejects at
// runtime compile to opErr instructions that fire only when reached.
func Compile(prog *Program) (*Compiled, error) {
	c := &Compiled{fnIndex: map[string]int32{}}
	names := make([]string, 0, len(prog.funcs))
	for name := range prog.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		c.fnIndex[name] = int32(i)
	}
	for _, name := range names {
		cf, err := compileFunc(c, prog, prog.funcs[name])
		if err != nil {
			return nil, err
		}
		c.fns = append(c.fns, cf)
	}
	main, err := compileBody(c, prog, "php_main", nil, nil, prog.stmts)
	if err != nil {
		return nil, err
	}
	c.main = main
	return c, nil
}

func compileFunc(c *Compiled, prog *Program, fd *funcDecl) (*compiledFn, error) {
	return compileBody(c, prog, fd.name, fd, fd.params, fd.body)
}

// fnc is the single-function compiler state.
type fnc struct {
	c     *Compiled
	prog  *Program
	fn    *compiledFn
	loops []loopFrame
}

// loopFrame tracks the innermost enclosing loop's jump targets while
// its body compiles. Continue/break sites are emitted as placeholder
// jumps and patched when the targets are known.
type loopFrame struct {
	breakPatches []int
	contPatches  []int
	contTarget   int // -1 until known (for-loop post section, foreach next)
	isForeach    bool
}

func compileBody(c *Compiled, prog *Program, name string, decl *funcDecl, params []string, body []stmt) (*compiledFn, error) {
	fn := &compiledFn{name: name, decl: decl, slotOf: map[string]int32{}}
	fc := &fnc{c: c, prog: prog, fn: fn}
	for _, p := range params {
		fn.params = append(fn.params, fc.slot(p))
	}
	collectVars(body, func(v string) { fc.slot(v) })
	if err := fc.stmts(body); err != nil {
		return nil, err
	}
	// Implicit return null at the end of every body.
	fc.emit(opConst, fc.konst(null), 0, 0)
	fc.emit(opReturn, 0, 0, 0)
	return fn, nil
}

// slot returns (allocating on first use) the slot index for a variable.
func (fc *fnc) slot(name string) int32 {
	if s, ok := fc.fn.slotOf[name]; ok {
		return s
	}
	s := int32(fc.fn.nSlots)
	fc.fn.slotOf[name] = s
	fc.fn.nSlots++
	return s
}

func (fc *fnc) emit(op opcode, a, b int32, line int) int {
	fc.fn.code = append(fc.fn.code, instr{op: op, a: a, b: b, line: int32(line)})
	return len(fc.fn.code) - 1
}

func (fc *fnc) patch(pc int, target int) { fc.fn.code[pc].a = int32(target) }

func (fc *fnc) here() int { return len(fc.fn.code) }

func (fc *fnc) konst(v Value) int32 {
	fc.fn.consts = append(fc.fn.consts, v)
	return int32(len(fc.fn.consts) - 1)
}

// errIdx interns a preformatted runtime error message.
func (fc *fnc) errIdx(msg string) int32 {
	fc.fn.errs = append(fc.fn.errs, msg)
	return int32(len(fc.fn.errs) - 1)
}

// icSite allocates a polymorphic inline-cache site id.
func (fc *fnc) icSite() int32 {
	id := int32(fc.c.numICs)
	fc.c.numICs++
	return id
}

// tfSite allocates a type-feedback site id.
func (fc *fnc) tfSite() int32 {
	id := int32(fc.c.numTFs)
	fc.c.numTFs++
	return id
}

func (fc *fnc) stmts(list []stmt) error {
	for _, s := range list {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fc *fnc) stmt(s stmt) error {
	switch n := s.(type) {
	case *inlineHTMLStmt:
		fc.emit(opInlineHTML, fc.konst(strV(n.html)), 0, 0)
	case *echoStmt:
		for _, a := range n.args {
			if err := fc.expr(a); err != nil {
				return err
			}
			fc.emit(opEcho, 0, 0, n.line)
		}
	case *exprStmt:
		if err := fc.expr(n.e); err != nil {
			return err
		}
		fc.emit(opPop, 0, 0, 0)
	case *ifStmt:
		if err := fc.expr(n.cond); err != nil {
			return err
		}
		jElse := fc.emit(opJumpIfFalse, 0, 0, n.line)
		if err := fc.stmts(n.then); err != nil {
			return err
		}
		jEnd := fc.emit(opJump, 0, 0, 0)
		fc.patch(jElse, fc.here())
		if err := fc.stmts(n.els); err != nil {
			return err
		}
		fc.patch(jEnd, fc.here())
	case *whileStmt:
		loopID := int32(fc.fn.nLoops)
		fc.fn.nLoops++
		fc.emit(opLoopInit, loopID, 0, 0)
		tick := fc.here()
		fc.emit(opLoopTick, loopID, 0, n.line)
		if err := fc.expr(n.cond); err != nil {
			return err
		}
		jEnd := fc.emit(opJumpIfFalse, 0, 0, n.line)
		fc.pushLoop(tick, false)
		if err := fc.stmts(n.body); err != nil {
			return err
		}
		fc.emit(opJump, int32(tick), 0, 0)
		fc.popLoop(fc.here(), tick)
		fc.patch(jEnd, fc.here())
	case *forStmt:
		if n.init != nil {
			if err := fc.expr(n.init); err != nil {
				return err
			}
			fc.emit(opPop, 0, 0, 0)
		}
		loopID := int32(fc.fn.nLoops)
		fc.fn.nLoops++
		fc.emit(opLoopInit, loopID, 0, 0)
		tick := fc.here()
		fc.emit(opLoopTick, loopID, 1, n.line)
		jEnd := -1
		if n.cond != nil {
			if err := fc.expr(n.cond); err != nil {
				return err
			}
			jEnd = fc.emit(opJumpIfFalse, 0, 0, n.line)
		}
		fc.pushLoop(-1, false) // continue target is the post section
		if err := fc.stmts(n.body); err != nil {
			return err
		}
		post := fc.here()
		if n.post != nil {
			if err := fc.expr(n.post); err != nil {
				return err
			}
			fc.emit(opPop, 0, 0, 0)
		}
		fc.emit(opJump, int32(tick), 0, 0)
		fc.popLoop(fc.here(), post)
		if jEnd >= 0 {
			fc.patch(jEnd, fc.here())
		}
	case *foreachStmt:
		if err := fc.expr(n.subject); err != nil {
			return err
		}
		fc.emit(opForeachStart, 0, 0, n.line)
		next := fc.here()
		keySlot := int32(0) // encoded as slot+1; 0 means "no key var"
		if n.keyVar != "" {
			keySlot = fc.slot(n.keyVar) + 1
		}
		packed := keySlot<<16 | fc.slot(n.valVar)
		jNext := fc.emit(opForeachNext, 0, packed, n.line)
		fc.pushLoop(next, true)
		if err := fc.stmts(n.body); err != nil {
			return err
		}
		fc.emit(opJump, int32(next), 0, 0)
		fc.popLoop(fc.here(), next)
		fc.patch(jNext, fc.here())
	case *returnStmt:
		if n.val != nil {
			if err := fc.expr(n.val); err != nil {
				return err
			}
		} else {
			fc.emit(opConst, fc.konst(null), 0, 0)
		}
		fc.emit(opReturn, 0, 0, n.line)
	case *breakStmt:
		if len(fc.loops) == 0 {
			// Inside a function this silently exits with null (the
			// tree-walker's callUser ignores a propagated break); at main
			// scope it is the tree-walker's outside-a-loop error.
			if fc.fn.decl != nil {
				fc.emit(opConst, fc.konst(null), 0, 0)
				fc.emit(opReturn, 0, 0, n.line)
			} else {
				fc.emit(opErr, fc.errIdx("php: break/continue outside a loop"), 0, n.line)
			}
			return nil
		}
		lf := &fc.loops[len(fc.loops)-1]
		if lf.isForeach {
			fc.emit(opIterPop, 0, 0, 0)
		}
		lf.breakPatches = append(lf.breakPatches, fc.emit(opJump, 0, 0, n.line))
	case *continueStmt:
		if len(fc.loops) == 0 {
			if fc.fn.decl != nil {
				fc.emit(opConst, fc.konst(null), 0, 0)
				fc.emit(opReturn, 0, 0, n.line)
			} else {
				fc.emit(opErr, fc.errIdx("php: break/continue outside a loop"), 0, n.line)
			}
			return nil
		}
		lf := &fc.loops[len(fc.loops)-1]
		if lf.contTarget >= 0 {
			fc.emit(opJump, int32(lf.contTarget), 0, n.line)
		} else {
			lf.contPatches = append(lf.contPatches, fc.emit(opJump, 0, 0, n.line))
		}
	case *funcDecl:
		fc.emit(opErr, fc.errIdx(fmt.Sprintf("php: line %d: nested function declarations unsupported", n.line)), 0, n.line)
	default:
		return fmt.Errorf("php: cannot compile statement %T", s)
	}
	return nil
}

func (fc *fnc) pushLoop(contTarget int, isForeach bool) {
	fc.loops = append(fc.loops, loopFrame{contTarget: contTarget, isForeach: isForeach})
}

// popLoop patches the loop's pending break jumps to breakTarget and its
// pending continue jumps to contTarget.
func (fc *fnc) popLoop(breakTarget, contTarget int) {
	lf := fc.loops[len(fc.loops)-1]
	fc.loops = fc.loops[:len(fc.loops)-1]
	for _, pc := range lf.breakPatches {
		fc.patch(pc, breakTarget)
	}
	for _, pc := range lf.contPatches {
		fc.patch(pc, contTarget)
	}
}

func (fc *fnc) expr(e expr) error {
	switch n := e.(type) {
	case *litExpr:
		fc.emit(opConst, fc.konst(n.val), 0, 0)
	case *varExpr:
		fc.emit(opLoadVar, fc.slot(n.name), 0, n.line)
	case *assignExpr:
		return fc.assign(n, true)
	case *indexExpr:
		return fc.indexRead(n)
	case *binaryExpr:
		return fc.binary(n)
	case *unaryExpr:
		if err := fc.expr(n.e); err != nil {
			return err
		}
		if n.op == "!" {
			fc.emit(opNot, 0, 0, n.line)
		} else {
			fc.emit(opNeg, 0, 0, n.line)
		}
	case *callExpr:
		return fc.call(n)
	case *arrayLit:
		return fc.arrayLit(n)
	case *ternaryExpr:
		if err := fc.expr(n.cond); err != nil {
			return err
		}
		jElse := fc.emit(opJumpIfFalse, 0, 0, n.line)
		if err := fc.expr(n.then); err != nil {
			return err
		}
		jEnd := fc.emit(opJump, 0, 0, 0)
		fc.patch(jElse, fc.here())
		if err := fc.expr(n.els); err != nil {
			return err
		}
		fc.patch(jEnd, fc.here())
	case *incDecExpr:
		// Mirror the tree-walker: read the target as an rvalue, bump,
		// then store (re-evaluating the target's subject path).
		if err := fc.expr(n.target); err != nil {
			return err
		}
		delta := int32(1)
		if n.op == "--" {
			delta = -1
		}
		fc.emit(opIncDec, delta, 0, n.line)
		fc.emit(opDup, 0, 0, 0)
		return fc.store(n.target)
	default:
		return fmt.Errorf("php: cannot compile expression %T", e)
	}
	return nil
}

func (fc *fnc) assign(n *assignExpr, wantValue bool) error {
	// Tree-walker order: the value first, then (for compound ops) the
	// target's current value, then the store.
	if err := fc.expr(n.value); err != nil {
		return err
	}
	if n.op != "=" {
		if err := fc.expr(n.target); err != nil {
			return err
		}
		var ck combineKind
		switch n.op {
		case ".=":
			ck = ckConcat
		case "+=":
			ck = ckAdd
		case "-=":
			ck = ckSub
		case "*=":
			ck = ckMul
		case "/=":
			ck = ckDiv
		}
		fc.emit(opCombine, int32(ck), 0, n.line)
	}
	if wantValue {
		fc.emit(opDup, 0, 0, 0)
	}
	return fc.store(n.target)
}

// store compiles a write of the value on top of the stack into target,
// mirroring the tree-walker's store(): subject evaluated (and
// auto-vivified) per level, key evaluated after vivification.
func (fc *fnc) store(target expr) error {
	switch t := target.(type) {
	case *varExpr:
		fc.emit(opStoreVar, fc.slot(t.name), 0, t.line)
	case *indexExpr:
		if err := fc.expr(t.subject); err != nil {
			return err
		}
		jOK := fc.emit(opVivCheck, 0, 0, t.line)
		// Vivified: a fresh array is on the stack; store a second handle
		// back into the subject path (recursively auto-vivifying it).
		fc.emit(opDup, 0, 0, 0)
		if err := fc.store(t.subject); err != nil {
			return err
		}
		fc.patch(jOK, fc.here())
		if t.key == nil { // $a[] = v
			fc.emit(opAppendSet, 0, 0, t.line)
			return nil
		}
		dyn, site := fc.keyInfo(t.key)
		if err := fc.expr(t.key); err != nil {
			return err
		}
		fc.emit(opStoreIndex, site, dyn, t.line)
	default:
		fc.emit(opErr, fc.errIdx(fmt.Sprintf("php: invalid assignment target %T", target)), 0, 0)
	}
	return nil
}

// keyInfo reports whether a key expression is dynamic (anything but a
// literal) and allocates an inline-cache site for dynamic keys.
func (fc *fnc) keyInfo(key expr) (dyn int32, site int32) {
	if _, isLit := key.(*litExpr); isLit {
		return 0, -1
	}
	return 1, fc.icSite()
}

func (fc *fnc) indexRead(n *indexExpr) error {
	if err := fc.expr(n.subject); err != nil {
		return err
	}
	if n.key == nil {
		// The tree-walker evaluates the subject, then rejects the read.
		fc.emit(opPop, 0, 0, 0)
		fc.emit(opErr, fc.errIdx(fmt.Sprintf("php: line %d: cannot read the append form $a[]", n.line)), 0, n.line)
		return nil
	}
	jNil := fc.emit(opIndexNil, 0, 0, n.line)
	dyn, site := fc.keyInfo(n.key)
	if err := fc.expr(n.key); err != nil {
		return err
	}
	fc.emit(opIndexGet, site, dyn, n.line)
	fc.patch(jNil, fc.here())
	return nil
}

func (fc *fnc) binary(n *binaryExpr) error {
	if n.op == "&&" || n.op == "||" {
		if err := fc.expr(n.l); err != nil {
			return err
		}
		op := opAndJump
		if n.op == "||" {
			op = opOrJump
		}
		jEnd := fc.emit(op, 0, 0, n.line)
		if err := fc.expr(n.r); err != nil {
			return err
		}
		fc.emit(opToBool, 0, 0, n.line)
		fc.patch(jEnd, fc.here())
		return nil
	}
	if err := fc.expr(n.l); err != nil {
		return err
	}
	if err := fc.expr(n.r); err != nil {
		return err
	}
	var bk binKind
	feedback := true
	switch n.op {
	case ".":
		bk, feedback = bkConcat, false
	case "+":
		bk = bkAdd
	case "-":
		bk = bkSub
	case "*":
		bk = bkMul
	case "/":
		bk = bkDiv
	case "%":
		bk = bkMod
	case "==":
		bk = bkEq
	case "!=":
		bk = bkNe
	case "===":
		bk = bkSeq
	case "!==":
		bk = bkSne
	case "<":
		bk = bkLt
	case ">":
		bk = bkGt
	case "<=":
		bk = bkLe
	case ">=":
		bk = bkGe
	case "<=>":
		bk = bkCmp
	default:
		// The tree-walker evaluates both operands before rejecting.
		fc.emit(opErr, fc.errIdx(fmt.Sprintf("php: line %d: unknown operator %q", n.line, n.op)), 0, n.line)
		return nil
	}
	site := int32(-1)
	if feedback {
		site = fc.tfSite()
	}
	fc.emit(opBinary, int32(bk), site, n.line)
	return nil
}

func (fc *fnc) call(n *callExpr) error {
	if _, ok := fc.prog.funcs[n.name]; ok {
		for _, a := range n.args {
			if err := fc.expr(a); err != nil {
				return err
			}
		}
		fc.emit(opCallUser, fc.c.fnIndex[n.name], int32(len(n.args)), n.line)
		return nil
	}
	switch n.name {
	case "isset":
		if len(n.args) != 1 {
			fc.emit(opErr, fc.errIdx(errArity(n, 1).Error()), 0, n.line)
			return nil
		}
		if err := fc.expr(n.args[0]); err != nil {
			return err
		}
		fc.emit(opIsSet, 0, 0, n.line)
		return nil
	case "unset":
		if len(n.args) != 1 {
			fc.emit(opErr, fc.errIdx(errArity(n, 1).Error()), 0, n.line)
			return nil
		}
		switch t := n.args[0].(type) {
		case *varExpr:
			fc.emit(opUnsetVar, fc.slot(t.name), 0, n.line)
		case *indexExpr:
			if err := fc.expr(t.subject); err != nil {
				return err
			}
			jEnd := fc.emit(opUnsetSubj, 0, 0, n.line)
			if err := fc.expr(t.key); err != nil {
				return err
			}
			fc.emit(opADelete, 0, 0, n.line)
			fc.patch(jEnd, fc.here())
		default:
			fc.emit(opErr, fc.errIdx(fmt.Sprintf("php: line %d: unset expects a variable or element", n.line)), 0, n.line)
		}
		return nil
	case "extract":
		if len(n.args) != 1 {
			fc.emit(opErr, fc.errIdx(errArity(n, 1).Error()), 0, n.line)
			return nil
		}
		if err := fc.expr(n.args[0]); err != nil {
			return err
		}
		fc.emit(opExtract, 0, 0, n.line)
		return nil
	}
	for _, a := range n.args {
		if err := fc.expr(a); err != nil {
			return err
		}
	}
	fc.fn.calls = append(fc.fn.calls, &callSite{node: n, fn: builtins[n.name]})
	fc.emit(opCallBuiltin, int32(len(fc.fn.calls)-1), int32(len(n.args)), n.line)
	return nil
}

func (fc *fnc) arrayLit(n *arrayLit) error {
	fc.emit(opNewArray, 0, 0, n.line)
	for i := range n.vals {
		if err := fc.expr(n.vals[i]); err != nil {
			return err
		}
		if n.keys[i] == nil {
			fc.emit(opArrAppend, 0, 0, n.line)
			continue
		}
		// Literal-construction sites get no inline cache: a keyed array
		// literal writes each key exactly once per evaluation.
		dyn := int32(1)
		if _, isLit := n.keys[i].(*litExpr); isLit {
			dyn = 0
		}
		if err := fc.expr(n.keys[i]); err != nil {
			return err
		}
		fc.emit(opArrSet, 0, dyn, n.line)
	}
	return nil
}

// collectVars walks a body and reports every variable name in
// deterministic first-encounter order, so slot numbering is stable.
func collectVars(list []stmt, add func(string)) {
	var walkE func(e expr)
	walkE = func(e expr) {
		switch n := e.(type) {
		case *varExpr:
			add(n.name)
		case *assignExpr:
			walkE(n.value)
			walkE(n.target)
		case *indexExpr:
			walkE(n.subject)
			if n.key != nil {
				walkE(n.key)
			}
		case *binaryExpr:
			walkE(n.l)
			walkE(n.r)
		case *unaryExpr:
			walkE(n.e)
		case *callExpr:
			for _, a := range n.args {
				walkE(a)
			}
		case *arrayLit:
			for i := range n.vals {
				if n.keys[i] != nil {
					walkE(n.keys[i])
				}
				walkE(n.vals[i])
			}
		case *ternaryExpr:
			walkE(n.cond)
			walkE(n.then)
			walkE(n.els)
		case *incDecExpr:
			walkE(n.target)
		}
	}
	var walkS func(list []stmt)
	walkS = func(list []stmt) {
		for _, s := range list {
			switch n := s.(type) {
			case *echoStmt:
				for _, a := range n.args {
					walkE(a)
				}
			case *exprStmt:
				walkE(n.e)
			case *ifStmt:
				walkE(n.cond)
				walkS(n.then)
				walkS(n.els)
			case *whileStmt:
				walkE(n.cond)
				walkS(n.body)
			case *forStmt:
				if n.init != nil {
					walkE(n.init)
				}
				if n.cond != nil {
					walkE(n.cond)
				}
				walkS(n.body)
				if n.post != nil {
					walkE(n.post)
				}
			case *foreachStmt:
				walkE(n.subject)
				if n.keyVar != "" {
					add(n.keyVar)
				}
				add(n.valVar)
				walkS(n.body)
			case *returnStmt:
				if n.val != nil {
					walkE(n.val)
				}
			}
		}
	}
	walkS(list)
}
