package php

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"repro/internal/hashmap"
	"repro/internal/vm"
)

// kind is a Value's type tag. The order is also the type-feedback
// numbering (a tfSite packs two tags into its pair), so it must not
// change.
type kind uint8

const (
	kNull kind = iota
	kBool
	kInt
	kFloat
	kString
	kArray
)

// Value is one PHP value: a tag and its payload, held in the struct
// itself, so the value stack, slots, call arguments and constants never
// box. Only a store into a vm.Array boxes (Interp.box, unbox), because
// the hash map keeps interface{}. Arrays are handles (reference
// semantics) rather than PHP's copy-on-write values — a documented
// simplification; scripts in this repository treat arrays as objects.
//
// A string payload is usually a view into the worker's request arena
// (see viewOf): it lives until the next BeginRequest, like every string
// result of the runtime. Interp keeps script strings past a request in
// exactly three places, each a copy: the content-locality hint
// (lastContent), inline-cache keys (icSite.keys) and regex-manager
// pattern keys (patterns).
type Value struct {
	k kind
	n int64 // bool (0/1), int, or the float's bits
	s string
	a *vm.Array
}

var null Value

// Int returns an integer Value — the host's way to preset $req.
func Int(n int64) Value { return Value{k: kInt, n: n} }

func boolV(b bool) Value {
	if b {
		return Value{k: kBool, n: 1}
	}
	return Value{k: kBool}
}

func floatV(f float64) Value { return Value{k: kFloat, n: int64(math.Float64bits(f))} }
func strV(s string) Value    { return Value{k: kString, s: s} }
func arrV(a *vm.Array) Value { return Value{k: kArray, a: a} }

func (v Value) float() float64 { return math.Float64frombits(uint64(v.n)) }

// goType names each kind by the Go type it is boxed as, for error
// messages.
var goType = [...]string{"<nil>", "bool", "int64", "float64", "string", "*vm.Array"}

// box converts v to what a vm.Array stores. Null, bools and arrays box
// without allocating; strings and numbers are boxed as a *Value carved
// from a block of 64, so a store allocates only every 64th time. A box is
// never written after it is handed out.
func (in *Interp) box(v Value) interface{} {
	switch v.k {
	case kNull:
		return nil
	case kBool:
		return v.n != 0
	case kArray:
		return v.a
	}
	if len(in.boxes) == 0 {
		in.boxes = make([]Value, 64)
	}
	p := &in.boxes[0]
	*p, in.boxes = v, in.boxes[1:]
	return p
}

// unbox is box's inverse, for a value read out of a vm.Array.
func unbox(x interface{}) Value {
	switch x := x.(type) {
	case *Value:
		return *x
	case bool:
		return boolV(x)
	case *vm.Array:
		return arrV(x)
	}
	return null
}

// --- the coercion table: one switch on the tag per conversion ---

// key converts v to an array key, for indexing, stores, unset and
// array_key_exists alike: bools and floats become ints, null is "".
func (v Value) key() (hashmap.Key, error) {
	switch v.k {
	case kNull:
		return hashmap.StrKey(""), nil
	case kBool, kInt:
		return hashmap.IntKey(v.n), nil
	case kFloat:
		return hashmap.IntKey(int64(v.float())), nil
	case kString:
		return hashmap.StrKey(v.s), nil
	}
	return hashmap.Key{}, fmt.Errorf("php: illegal array key type %s", goType[v.k])
}

// keyValue is the Value of an array key (foreach, array_keys).
func keyValue(k hashmap.Key) Value {
	if k.IsInt {
		return Int(k.Int)
	}
	return strV(k.Str)
}

// truthyScalar is PHP boolean conversion for everything but arrays,
// whose emptiness the runtime must answer (Interp.truthy).
func (v Value) truthyScalar() bool {
	switch v.k {
	case kNull:
		return false
	case kString:
		return v.s != "" && v.s != "0"
	case kFloat:
		return v.float() != 0
	case kArray:
		return true
	}
	return v.n != 0
}

func (v Value) toInt() int64 {
	switch v.k {
	case kBool, kInt:
		return v.n
	case kFloat:
		return int64(v.float())
	case kString:
		n, _ := strconv.ParseInt(leadingInt(v.s), 10, 64)
		return n
	}
	return 0
}

func (v Value) toFloat() float64 {
	switch v.k {
	case kFloat:
		return v.float()
	case kString:
		f, _ := strconv.ParseFloat(v.s, 64)
		return f
	}
	return float64(v.toInt())
}

// str converts v to a string. Numbers format into the request arena, so
// the result is a view with the arena's lifetime either way.
func (in *Interp) str(v Value) string {
	switch v.k {
	case kBool:
		if v.n != 0 {
			return "1"
		}
	case kInt:
		return viewOf(strconv.AppendInt(in.rt.Arena().Buf(20), v.n, 10))
	case kFloat:
		return viewOf(strconv.AppendFloat(in.rt.Arena().Buf(24), v.float(), 'G', 14, 64))
	case kString:
		return v.s
	case kArray:
		return "Array"
	}
	return ""
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

func (v Value) isNumeric() bool { return v.k == kInt || v.k == kFloat }

func numericString(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// --- operators ---

func arith(op string, l, r Value) Value {
	if l.k == kInt && r.k == kInt {
		li, ri := l.n, r.n
		switch op {
		case "+":
			return Int(li + ri)
		case "-":
			return Int(li - ri)
		case "*":
			return Int(li * ri)
		case "%":
			if ri == 0 {
				return Int(0)
			}
			return Int(li % ri)
		case "/":
			if ri != 0 && li%ri == 0 {
				return Int(li / ri)
			}
		}
	}
	lf, rf := l.toFloat(), r.toFloat()
	switch op {
	case "+":
		return floatV(lf + rf)
	case "-":
		return floatV(lf - rf)
	case "*":
		return floatV(lf * rf)
	case "/":
		if rf == 0 {
			return floatV(0)
		}
		return floatV(lf / rf)
	case "%":
		ri := r.toInt()
		if ri == 0 {
			return Int(0)
		}
		return Int(l.toInt() % ri)
	}
	return null
}

func looseEq(l, r Value) bool {
	if l.isNumeric() || r.isNumeric() {
		// PHP 8: a number and a numeric string compare numerically; a
		// number and any other string compare as strings, and a
		// formatted number never equals a non-numeric string.
		if (l.k == kString && !numericString(l.s)) || (r.k == kString && !numericString(r.s)) {
			return false
		}
		return l.toFloat() == r.toFloat()
	}
	// Two numeric strings compare numerically (PHP 8), keeping == and
	// the relational operators (compare) consistent: "10" == "1e1".
	if l.k == kString && r.k == kString && numericString(l.s) && numericString(r.s) {
		return l.toFloat() == r.toFloat()
	}
	return strictEq(l, r)
}

func strictEq(l, r Value) bool {
	if l.k != r.k {
		return false
	}
	switch l.k {
	case kFloat:
		return l.float() == r.float()
	case kString:
		return l.s == r.s
	case kArray:
		return l.a == r.a
	}
	return l.n == r.n
}

func compare(l, r Value) int {
	if l.k == kString && r.k == kString && !(numericString(l.s) && numericString(r.s)) {
		switch {
		case l.s < r.s:
			return -1
		case l.s > r.s:
			return 1
		}
		return 0
	}
	lf, rf := l.toFloat(), r.toFloat()
	switch {
	case lf < rf:
		return -1
	case lf > rf:
		return 1
	}
	return 0
}

// --- views: the package's only use of unsafe ---

// bytesOf returns s's bytes without copying, as the input of a vm or isa
// string operation; viewOf returns a runtime result as a string without
// copying. Soundness: no vm/isa operation writes into its inputs (each
// returns a fresh slice or a sub-slice of its subject), and bytesOf's
// capacity equals its length, so an append can never write into the
// string. viewOf is only given a slice that nothing writes after it is
// returned: a string-op result or a buffer this package just filled. Its
// memory is the request arena (or, past a chunk, the Go heap), so a view
// is valid until the runtime's next BeginRequest — the lifetime every
// Value string has (see Value); the three places that keep one longer
// copy it.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

func viewOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
