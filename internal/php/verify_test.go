package php

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// VerifyCompiled checks a compiled program the way a bytecode verifier
// checks code before it runs, at opcode level rather than through the
// AST it came from. In every body:
//
//   - every operand index is valid: variable slots, loop counters,
//     constants (opInlineHTML's a string), error messages, builtin call
//     sites (whose argc matches the call node), user functions, inline-
//     cache and type-feedback sites, operator kinds;
//   - every jump target is an instruction of the same body, and control
//     never falls off its end;
//   - the value stack never goes below empty and the foreach iterator
//     stack never below zero, and every path reaching an instruction
//     arrives with the same depth of each.
//
// It is exported for the external test that verifies the blog script.
func VerifyCompiled(c *Compiled) error {
	if c.main == nil {
		return errors.New("no main body")
	}
	for _, fn := range append([]*compiledFn{c.main}, c.fns...) {
		if err := verifyFn(c, fn); err != nil {
			return fmt.Errorf("%s: %w", fn.name, err)
		}
	}
	return nil
}

// depths is the abstract state the verifier carries per instruction.
type depths struct{ stack, iters int }

func verifyFn(c *Compiled, fn *compiledFn) error {
	code := fn.code
	if len(code) == 0 {
		return errors.New("empty body")
	}
	for _, p := range fn.params {
		if p < 0 || int(p) >= fn.nSlots {
			return fmt.Errorf("parameter slot %d out of range [0,%d)", p, fn.nSlots)
		}
	}
	for pc, ins := range code {
		if err := verifyOperands(c, fn, ins); err != nil {
			return fmt.Errorf("pc %d (op %d): %w", pc, ins.op, err)
		}
	}

	at := make([]depths, len(code))
	seen := make([]bool, len(code))
	work := []int{0}
	seen[0] = true
	flow := func(from, to int, d depths) error {
		if to < 0 || to >= len(code) {
			return fmt.Errorf("pc %d: target %d out of range [0,%d)", from, to, len(code))
		}
		if !seen[to] {
			seen[to], at[to] = true, d
			work = append(work, to)
			return nil
		}
		if at[to] != d {
			return fmt.Errorf("pc %d: reaches %d with stack %d, iterators %d; another path arrives with %d, %d",
				from, to, d.stack, d.iters, at[to].stack, at[to].iters)
		}
		return nil
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		ins, d := code[pc], at[pc]
		// need is how many values ins reads off the stack; next is the
		// state it falls through with, taken the one its jump (if any)
		// leaves with.
		need, next, taken, jumps, falls := 0, d, d, false, true
		switch ins.op {
		case opConst, opLoadVar, opNewArray, opUnsetVar:
			next.stack++
		case opDup:
			need, next.stack = 1, d.stack+1
		case opStoreVar, opPop, opEcho:
			need, next.stack = 1, d.stack-1
		case opToBool, opNot, opNeg, opIncDec, opIsSet, opExtract:
			need = 1
		case opIndexNil, opVivCheck, opUnsetSubj:
			// Both ways leave one value where the subject was.
			need, jumps = 1, true
		case opJump:
			jumps, falls = true, false
		case opJumpIfFalse:
			need, next.stack, jumps = 1, d.stack-1, true
			taken = next
		case opAndJump, opOrJump:
			// The jump pushes the short-circuit result back.
			need, next.stack, jumps = 1, d.stack-1, true
		case opBinary, opIndexGet, opCombine, opADelete:
			need, next.stack = 2, d.stack-1
		case opAppendSet:
			need, next.stack = 2, d.stack-2
		case opArrAppend:
			need, next.stack = 2, d.stack-1
		case opStoreIndex:
			need, next.stack = 3, d.stack-3
		case opArrSet:
			need, next.stack = 3, d.stack-2
		case opInlineHTML, opLoopInit, opLoopTick:
		case opForeachStart:
			need, next = 1, depths{d.stack - 1, d.iters + 1}
		case opForeachNext:
			if d.iters < 1 {
				return fmt.Errorf("pc %d: foreach step with no iterator", pc)
			}
			jumps, taken.iters = true, d.iters-1
		case opIterPop:
			if d.iters < 1 {
				return fmt.Errorf("pc %d: iterator pop with no iterator", pc)
			}
			next.iters--
		case opCallUser, opCallBuiltin:
			need, next.stack = int(ins.b), d.stack-int(ins.b)+1
		case opReturn:
			need, falls = 1, false
		case opErr:
			falls = false
		default:
			return fmt.Errorf("pc %d: unknown opcode %d", pc, ins.op)
		}
		if d.stack < need {
			return fmt.Errorf("pc %d (op %d): needs %d values, stack holds %d", pc, ins.op, need, d.stack)
		}
		if jumps {
			if err := flow(pc, int(ins.a), taken); err != nil {
				return err
			}
		}
		if falls {
			if pc+1 == len(code) {
				return fmt.Errorf("pc %d: control falls off the end", pc)
			}
			if err := flow(pc, pc+1, next); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyOperands checks ins's index operands against the tables they
// index.
func verifyOperands(c *Compiled, fn *compiledFn, ins instr) error {
	in := func(what string, i int32, n int) error {
		if i < 0 || int(i) >= n {
			return fmt.Errorf("%s %d out of range [0,%d)", what, i, n)
		}
		return nil
	}
	site := func(what string, i int32, n int) error {
		if i == -1 {
			return nil
		}
		return in(what, i, n)
	}
	flag := func(i int32) error {
		if i != 0 && i != 1 {
			return fmt.Errorf("dynamic flag %d not 0 or 1", i)
		}
		return nil
	}
	switch ins.op {
	case opConst:
		return in("constant", ins.a, len(fn.consts))
	case opInlineHTML:
		if err := in("constant", ins.a, len(fn.consts)); err != nil {
			return err
		}
		if fn.consts[ins.a].K != kString {
			return fmt.Errorf("inline HTML constant %d is not a string", ins.a)
		}
	case opLoadVar, opStoreVar, opUnsetVar:
		return in("slot", ins.a, fn.nSlots)
	case opLoopInit, opLoopTick:
		return in("loop counter", ins.a, fn.nLoops)
	case opErr:
		return in("error message", ins.a, len(fn.errs))
	case opBinary:
		if err := in("operator", ins.a, int(bkCmp)+1); err != nil {
			return err
		}
		return site("type-feedback site", ins.b, c.numTFs)
	case opCombine:
		return in("compound operator", ins.a, int(ckDiv)+1)
	case opIncDec:
		if ins.a != 1 && ins.a != -1 {
			return fmt.Errorf("increment %d not ±1", ins.a)
		}
	case opIndexGet, opStoreIndex:
		if err := site("inline-cache site", ins.a, c.numICs); err != nil {
			return err
		}
		return flag(ins.b)
	case opArrSet:
		return flag(ins.b)
	case opForeachNext:
		if err := in("value slot", ins.b&0xffff, fn.nSlots); err != nil {
			return err
		}
		if key := ins.b >> 16; key > 0 {
			return in("key slot", key-1, fn.nSlots)
		}
	case opCallUser:
		if err := in("function", ins.a, len(c.fns)); err != nil {
			return err
		}
		if ins.b < 0 {
			return fmt.Errorf("negative argc %d", ins.b)
		}
	case opCallBuiltin:
		if err := in("call site", ins.a, len(fn.calls)); err != nil {
			return err
		}
		if n := len(fn.calls[ins.a].node.args); int(ins.b) != n {
			return fmt.Errorf("argc %d, the call has %d arguments", ins.b, n)
		}
	}
	return nil
}

// mustVerify fails t when comp does not verify.
func mustVerify(t testing.TB, comp *Compiled) {
	t.Helper()
	if err := VerifyCompiled(comp); err != nil {
		t.Fatalf("bytecode verifier: %v", err)
	}
}

// TestVerifierRejectsBrokenCode corrupts a verified program one way at a
// time and requires the verifier to name each fault, so a verifier that
// accepts everything cannot pass the tests that run it.
func TestVerifierRejectsBrokenCode(t *testing.T) {
	src := `<?php
function f($a) { $s = 0; foreach ($a as $k => $v) { if ($v > 1 && $k) { $s += $v; } } return $s; }
$m = ["x" => 1, "y" => 2];
$key = "y";
echo f($m), $m[$key], strlen("ab");
?>`
	fresh := func() *Compiled {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		mustVerify(t, comp)
		return comp
	}
	// find returns the first instruction of fn with opcode op.
	find := func(fn *compiledFn, op opcode) *instr {
		for i := range fn.code {
			if fn.code[i].op == op {
				return &fn.code[i]
			}
		}
		t.Fatalf("%s has no opcode %d", fn.name, op)
		return nil
	}
	cases := []struct {
		name, want string
		corrupt    func(c *Compiled)
	}{
		{"jump out of range", "out of range", func(c *Compiled) { find(c.fns[0], opJumpIfFalse).a = int32(len(c.fns[0].code)) }},
		{"underflow", "needs 1 values", func(c *Compiled) { c.main.code[0] = instr{op: opPop} }},
		{"join disagrees", "another path arrives", func(c *Compiled) { find(c.fns[0], opAndJump).op = opJumpIfFalse }},
		{"iterator underflow", "no iterator", func(c *Compiled) { find(c.fns[0], opForeachStart).op = opPop }},
		{"falls off the end", "falls off the end", func(c *Compiled) { c.main.code = c.main.code[:len(c.main.code)-1] }},
		{"constant index", "constant", func(c *Compiled) { find(c.main, opConst).a = int32(len(c.main.consts)) }},
		{"slot index", "slot", func(c *Compiled) { find(c.main, opStoreVar).a = int32(c.main.nSlots) }},
		{"inline-cache site", "inline-cache site", func(c *Compiled) { find(c.main, opIndexGet).a = int32(c.numICs) }},
		{"type-feedback site", "type-feedback site", func(c *Compiled) { find(c.fns[0], opBinary).b = int32(c.numTFs) }},
		{"function index", "function", func(c *Compiled) { find(c.main, opCallUser).a = int32(len(c.fns)) }},
		{"builtin argc", "argc", func(c *Compiled) { find(c.main, opCallBuiltin).b++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := fresh()
			tc.corrupt(c)
			err := VerifyCompiled(c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verifier said %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
