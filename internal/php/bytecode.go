package php

// The bytecode tier compiles the parsed AST into a compact opcode
// stream executed by a stack machine (bcexec.go). The motivation is the
// paper's §3 "future core" baseline: a profile-guided runtime that
// replaces per-node tree dispatch with threaded opcodes, polymorphic
// inline caches at hash-access sites, and type feedback at arithmetic
// sites. Every array access, string op, and regexp still flows through
// the same vm.Runtime / isa.CPU helpers as the tree-walker, so the
// simulated accelerator accounting is exact — only the modeled
// interpreter-dispatch overhead (CatOther uops) shrinks, which is what
// moves the Fig. 1 gauges the way §3 predicts.

type opcode uint8

const (
	opConst        opcode = iota // push consts[a]
	opLoadVar                    // push slots[a]
	opStoreVar                   // slots[a] = pop
	opDup                        // duplicate top of stack
	opPop                        // drop top of stack
	opJump                       // pc = a
	opJumpIfFalse                // pop; if !truthy pc = a
	opAndJump                    // pop l; if !truthy push false, pc = a
	opOrJump                     // pop l; if truthy push true, pc = a
	opToBool                     // pop; push truthy as bool
	opNot                        // pop; push !truthy
	opNeg                        // pop; push typed negation
	opBinary                     // a = binKind, b = type-feedback site (-1 none); pop r, l
	opEcho                       // pop; write toString to output buffer
	opInlineHTML                 // write consts[a] (string) verbatim
	opIndexNil                   // peek subject: nil → pop, push nil, pc = a; array/string → fall through; else error
	opIndexGet                   // pop key, pop subject; a = IC site (-1), b = 1 when dynamic
	opVivCheck                   // pop subj; array → push, pc = a; nil → push new array, fall through; else error
	opStoreIndex                 // pop key, pop arr, pop val; a = IC site (-1), b = 1 when dynamic
	opAppendSet                  // pop arr, pop val; ASet at the next auto-index
	opCombine                    // a = combineKind; pop cur, pop val; push val <op> cur-style compound result
	opIncDec                     // pop cur; push cur ± 1 (a = +1/-1)
	opNewArray                   // push a fresh request-owned array
	opArrAppend                  // pop val; peek arr; ASet at next auto-index
	opArrSet                     // pop key, pop val; peek arr; b = 1 when dynamic
	opLoopInit                   // loops[a] = 0
	opLoopTick                   // loops[a]++; over the limit → iteration-limit error (b = 0 while, 1 for)
	opForeachStart               // pop subject; must be array; push iterator; pc = a (the opForeachNext)
	opForeachNext                // a = end target; b = (keySlot+1)<<16 | valSlot; advance or exit
	opIterPop                    // pop one foreach iterator (break)
	opCallUser                   // a = function index, b = argc; args on stack
	opCallBuiltin                // a = call-site index into calls; args on stack
	opIsSet                      // pop; push v != nil
	opUnsetVar                   // slots[a] = nil; push nil
	opUnsetSubj                  // pop; array → push, fall through; else push nil, pc = a
	opADelete                    // pop key, pop arr; delete; push nil
	opExtract                    // pop; import string keys into slots; push count
	opReturn                     // pop; return value from the activation
	opErr                        // fail with errs[a]
)

// binKind selects the operator for opBinary.
type binKind int32

const (
	bkConcat binKind = iota
	bkAdd
	bkSub
	bkMul
	bkDiv
	bkMod
	bkEq
	bkNe
	bkSeq
	bkSne
	bkLt
	bkGt
	bkLe
	bkGe
	bkCmp
)

// combineKind selects the compound-assignment operator for opCombine.
type combineKind int32

const (
	ckConcat combineKind = iota
	ckAdd
	ckSub
	ckMul
	ckDiv
)

// instr is one opcode with operands. line carries the source line for
// instructions that can raise positioned errors.
type instr struct {
	op   opcode
	a, b int32
	line int32
}

// callSite is the metadata an opCallBuiltin needs: the original call
// node (builtins format arity errors from it) and the resolved name.
type callSite struct {
	node *callExpr
}

// compiledFn is one function (or the script main) lowered to bytecode.
// It is immutable after Compile and safe to share across interpreters;
// all mutable execution state (stack, slots, inline caches) lives on
// the Interp.
type compiledFn struct {
	name   string
	decl   *funcDecl // nil for main
	params []int32   // slot index per declared parameter
	nSlots int
	slotOf map[string]int32 // variable name → slot
	code   []instr
	consts []interface{}
	errs   []string    // preformatted runtime error messages for opErr
	calls  []*callSite // opCallBuiltin metadata
	nLoops int         // while/for iteration-limit counters
}

// Compiled is a whole program lowered to bytecode: the main body plus
// every declared function, with global counts for the inline-cache and
// type-feedback site tables each executing Interp instantiates.
type Compiled struct {
	main    *compiledFn
	fns     []*compiledFn // sorted by name
	fnIndex map[string]int32
	numICs  int // polymorphic inline-cache sites (dynamic hash get/set)
	numTFs  int // type-feedback sites (arithmetic/comparison)
}

// --- per-Interp mutable execution state ---

// icWays is the associativity of one polymorphic inline cache: how many
// distinct string keys a site may specialize on before it goes
// megamorphic and reverts to generic dynamic lookups.
const icWays = 4

// icSite is one polymorphic inline cache at a dynamic-key hash access.
// After observing a stable set of string keys it treats further hits as
// monomorphic accesses, which the isa.CPU prices as IC hits when the
// InlineCaching mitigation is enabled.
type icSite struct {
	keys [icWays]string
	n    uint8
	mega bool
}

// lookup reports whether key is cached, recording it when a way is
// free. A site that overflows its ways goes megamorphic permanently.
func (s *icSite) lookup(key string) bool {
	for i := uint8(0); i < s.n; i++ {
		if s.keys[i] == key {
			return true
		}
	}
	if s.mega {
		return false
	}
	if s.n < icWays {
		s.keys[s.n] = key
		s.n++
		return false
	}
	s.mega = true
	return false
}

// tfSite is one type-feedback site: it remembers the operand-type pair
// last observed so stable sites cost a single (checked-load-elidable)
// type check instead of a generic dispatch.
type tfSite struct {
	pair uint16
	seen bool
}

// typeTag classifies a PHP value for type feedback.
func typeTag(v interface{}) uint16 {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64:
		return 2
	case float64:
		return 3
	case string:
		return 4
	default:
		return 5
	}
}
