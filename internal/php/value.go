package php

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/hashmap"
)

// The type tags are hashmap's. Their order is also the type-feedback
// numbering (a tfSite packs two tags into its pair).
const (
	kNull   = hashmap.KindNull
	kBool   = hashmap.KindBool
	kInt    = hashmap.KindInt
	kFloat  = hashmap.KindFloat
	kString = hashmap.KindString
	kArray  = hashmap.KindArray
)

// Value is one PHP value: the tag and payload the hash map stores
// (hashmap.Value), so the value stack, slots, call arguments, constants
// and array elements all hold the same struct, and a value crosses into
// the runtime by a conversion, never a box. Arrays are handles
// (reference semantics) rather than PHP's copy-on-write values — a
// documented simplification; scripts in this repository treat arrays as
// objects.
//
// A string payload is usually a view into the worker's request arena
// (hashmap.ViewOf): it lives until the next BeginRequest, like every
// string result of the runtime. Interp keeps script strings past a
// request in exactly three places, each a copy: the content-locality
// hint (lastContent), inline-cache keys (icSite.keys) and regex-manager
// pattern keys (patterns).
type Value hashmap.Value

var null Value

// Int returns an integer Value — the host's way to preset $req.
func Int(n int64) Value { return Value{K: kInt, N: n} }

func boolV(b bool) Value {
	if b {
		return Value{K: kBool, N: 1}
	}
	return Value{K: kBool}
}

func floatV(f float64) Value    { return Value{K: kFloat, N: int64(math.Float64bits(f))} }
func strV(s string) Value       { return Value{K: kString, S: s} }
func arrV(a *hashmap.Map) Value { return Value{K: kArray, A: a} }

func (v Value) float() float64 { return math.Float64frombits(uint64(v.N)) }

// goType names each kind in error messages. Scripts' error output
// depends on these strings, so they are fixed here rather than derived
// from the Go types that carry the values.
var goType = [...]string{"<nil>", "bool", "int64", "float64", "string", "*vm.Array"}

// --- the coercion table: one switch on the tag per conversion ---

// key converts v to an array key, for indexing, stores, unset and
// array_key_exists alike: bools and floats become ints, null is "".
func (v Value) key() (hashmap.Key, error) {
	switch v.K {
	case kNull:
		return hashmap.StrKey(""), nil
	case kBool, kInt:
		return hashmap.IntKey(v.N), nil
	case kFloat:
		return hashmap.IntKey(int64(v.float())), nil
	case kString:
		return hashmap.StrKey(v.S), nil
	}
	return hashmap.Key{}, fmt.Errorf("php: illegal array key type %s", goType[v.K])
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
	switch v.K {
	case kNull:
		return false
	case kString:
		return v.S != "" && v.S != "0"
	case kFloat:
		return v.float() != 0
	case kArray:
		return true
	}
	return v.N != 0
}

func (v Value) toInt() int64 {
	switch v.K {
	case kBool, kInt:
		return v.N
	case kFloat:
		return int64(v.float())
	case kString:
		n, _ := strconv.ParseInt(leadingInt(v.S), 10, 64)
		return n
	}
	return 0
}

func (v Value) toFloat() float64 {
	switch v.K {
	case kFloat:
		return v.float()
	case kString:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	}
	return float64(v.toInt())
}

// str converts v to a string. Numbers format into the request arena, so
// the result is a view with the arena's lifetime either way.
func (in *Interp) str(v Value) string {
	switch v.K {
	case kBool:
		if v.N != 0 {
			return "1"
		}
	case kInt:
		return hashmap.ViewOf(strconv.AppendInt(in.rt.Arena().Buf(20), v.N, 10))
	case kFloat:
		return hashmap.ViewOf(strconv.AppendFloat(in.rt.Arena().Buf(24), v.float(), 'G', 14, 64))
	case kString:
		return v.S
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

func (v Value) isNumeric() bool { return v.K == kInt || v.K == kFloat }

func numericString(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// --- operators ---

func arith(op string, l, r Value) Value {
	if l.K == kInt && r.K == kInt {
		li, ri := l.N, r.N
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
		if (l.K == kString && !numericString(l.S)) || (r.K == kString && !numericString(r.S)) {
			return false
		}
		return l.toFloat() == r.toFloat()
	}
	// Two numeric strings compare numerically (PHP 8), keeping == and
	// the relational operators (compare) consistent: "10" == "1e1".
	if l.K == kString && r.K == kString && numericString(l.S) && numericString(r.S) {
		return l.toFloat() == r.toFloat()
	}
	return strictEq(l, r)
}

func strictEq(l, r Value) bool {
	if l.K != r.K {
		return false
	}
	switch l.K {
	case kFloat:
		return l.float() == r.float()
	case kString:
		return l.S == r.S
	case kArray:
		return l.A == r.A
	}
	return l.N == r.N
}

func compare(l, r Value) int {
	if l.K == kString && r.K == kString && !(numericString(l.S) && numericString(r.S)) {
		switch {
		case l.S < r.S:
			return -1
		case l.S > r.S:
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
