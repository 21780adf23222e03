package php

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hashmap"
	"repro/internal/isa"
	"repro/internal/regex"
	"repro/internal/vm"
)

// evalCall dispatches a call expression: user functions first, then the
// built-in library. Built-ins route through the vm.Runtime so the string,
// hash, heap, and regexp work they do is metered and accelerated.
func (in *Interp) evalCall(n *callExpr, f *frame) (Value, error) {
	if fd, ok := in.prog.funcs[n.name]; ok {
		args, err := in.evalArgs(n.args, f)
		if err != nil {
			return null, err
		}
		v, err := in.callUser(fd, args)
		in.popArgs(len(args))
		return v, err
	}
	if in.rt.Tracing() { // skip the name concat on the unsampled path
		in.rt.BeginSpan("php:" + n.name)
		defer in.rt.EndSpan()
	}

	// Special forms that inspect their argument expressions.
	switch n.name {
	case "isset":
		if len(n.args) != 1 {
			return null, errArity(n, 1)
		}
		v, err := in.eval(n.args[0], f)
		if err != nil {
			return null, err
		}
		return boolV(v.K != kNull), nil
	case "unset":
		if len(n.args) != 1 {
			return null, errArity(n, 1)
		}
		ix, ok := n.args[0].(*indexExpr)
		if !ok {
			if v, ok := n.args[0].(*varExpr); ok {
				delete(f.vars, v.name)
				return null, nil
			}
			return null, fmt.Errorf("php: line %d: unset expects a variable or element", n.line)
		}
		subject, err := in.eval(ix.subject, f)
		if err != nil {
			return null, err
		}
		if subject.K != kArray {
			return null, nil
		}
		k, _, err := in.evalKey(ix.key, f)
		if err != nil {
			return null, err
		}
		in.rt.ADelete(f.fn, subject.A, k)
		return null, nil
	case "extract":
		// The §4.2 pattern: import an array's pairs into the local scope
		// using dynamic key names.
		if len(n.args) != 1 {
			return null, errArity(n, 1)
		}
		v, err := in.eval(n.args[0], f)
		if err != nil {
			return null, err
		}
		if v.K != kArray {
			return Int(0), nil
		}
		count := int64(0)
		in.rt.AForeach("extract", v.A, func(k hashmap.Key, v hashmap.Value) bool {
			if !k.IsInt {
				f.vars[k.Str] = Value(v)
				count++
			}
			return true
		})
		return Int(count), nil
	}

	args, err := in.evalArgs(n.args, f)
	if err != nil {
		return null, err
	}
	defer in.popArgs(len(args))
	fn, ok := builtins[n.name]
	if !ok {
		return null, fmt.Errorf("php: line %d: call to undefined function %s()", n.line, n.name)
	}
	return fn(in, f.fn, n, args)
}

// evalArgs evaluates call arguments onto the argument stack and returns
// them as its top; the caller pops them with popArgs after the call.
func (in *Interp) evalArgs(args []expr, f *frame) ([]Value, error) {
	base := len(in.args)
	for _, a := range args {
		v, err := in.eval(a, f)
		if err != nil {
			in.popArgs(len(in.args) - base)
			return nil, err
		}
		in.args = append(in.args, v)
	}
	return in.args[base:], nil
}

func (in *Interp) popArgs(n int) {
	top := len(in.args) - n
	clear(in.args[top:])
	in.args = in.args[:top]
}

func errArity(n *callExpr, want int) error {
	return fmt.Errorf("php: line %d: %s() expects %d argument(s), got %d", n.line, n.name, want, len(n.args))
}

// builtinFn is one library function. fn is the calling PHP function, the
// leaf every charge is attributed to.
type builtinFn func(in *Interp, fn string, n *callExpr, args []Value) (Value, error)

// builtins maps PHP function names to implementations. String and regexp
// functions call the runtime's accelerated operations; array functions
// operate on array handles (*hashmap.Map).
var builtins = map[string]builtinFn{
	// --- strings (accelerated) ---
	"strlen": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 1 {
			return null, errArity(n, 1)
		}
		return Int(int64(len(in.str(args[0])))), nil
	},
	"strtoupper":       stringOp1((*vm.Runtime).ToUpper),
	"strtolower":       stringOp1((*vm.Runtime).ToLower),
	"trim":             stringOp1((*vm.Runtime).Trim),
	"nl2br":            stringOp1((*vm.Runtime).NL2BR),
	"addslashes":       stringOp1((*vm.Runtime).AddSlashes),
	"htmlspecialchars": stringOp1((*vm.Runtime).EscapeHTML),
	"str_replace": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 3 {
			return null, errArity(n, 3)
		}
		search, repl, subject := in.str(args[0]), in.str(args[1]), in.str(args[2])
		return strV(hashmap.ViewOf(in.rt.Replace(fn, hashmap.BytesOf(subject), hashmap.BytesOf(search), hashmap.BytesOf(repl)))), nil
	},
	"strpos": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		pos := in.rt.Find(fn, hashmap.BytesOf(in.str(args[0])), hashmap.BytesOf(in.str(args[1])))
		if pos < 0 {
			return boolV(false), nil
		}
		return Int(int64(pos)), nil
	},
	"strcmp": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		return Int(int64(in.rt.Compare(fn, hashmap.BytesOf(in.str(args[0])), hashmap.BytesOf(in.str(args[1]))))), nil
	},
	"strtr": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 3 {
			return null, errArity(n, 3)
		}
		from, to := in.str(args[1]), in.str(args[2])
		if len(from) != len(to) {
			return null, fmt.Errorf("php: line %d: strtr tables must have equal length", n.line)
		}
		return strV(hashmap.ViewOf(in.rt.Translate(fn, hashmap.BytesOf(in.str(args[0])), hashmap.BytesOf(from), hashmap.BytesOf(to)))), nil
	},
	"substr": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) < 2 || len(args) > 3 {
			return null, errArity(n, 2)
		}
		s := in.str(args[0])
		start := int(args[1].toInt())
		if start < 0 {
			start += len(s)
		}
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return strV(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			l := int(args[2].toInt())
			if l < 0 {
				end += l
			} else if start+l < end {
				end = start + l
			}
		}
		if end < start {
			end = start
		}
		return strV(s[start:end]), nil
	},
	"str_repeat": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		count := int(args[1].toInt())
		if count < 0 || count > 1<<20 {
			return null, fmt.Errorf("php: line %d: str_repeat count out of range", n.line)
		}
		s := in.str(args[0])
		out := in.rt.Arena().Buf(len(s) * count)
		for i := 0; i < count; i++ {
			out = append(out, s...)
		}
		return strV(hashmap.ViewOf(out)), nil
	},
	"implode": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		glue := hashmap.BytesOf(in.str(args[0]))
		if args[1].K != kArray {
			return null, fmt.Errorf("php: line %d: implode expects an array", n.line)
		}
		var parts [][]byte
		in.rt.AForeach(fn, args[1].A, func(k hashmap.Key, v hashmap.Value) bool {
			if len(parts) > 0 {
				parts = append(parts, glue)
			}
			parts = append(parts, hashmap.BytesOf(in.str(Value(v))))
			return true
		})
		return strV(hashmap.ViewOf(in.rt.Concat(fn, parts...))), nil
	},
	"explode": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		delim, s := in.str(args[0]), in.str(args[1])
		if delim == "" {
			return null, fmt.Errorf("php: line %d: explode with empty delimiter", n.line)
		}
		arr := in.newArray(fn)
		for i, part := range strings.Split(s, delim) {
			in.rt.ASet(fn, arr, hashmap.IntKey(int64(i)), hashmap.StrValue(part), false)
		}
		return arrV(arr), nil
	},
	"sprintf": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) < 1 {
			return null, errArity(n, 1)
		}
		return strV(phpSprintf(in, in.str(args[0]), args[1:])), nil
	},

	// --- regexps (accelerated) ---
	"preg_replace": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 3 {
			return null, errArity(n, 3)
		}
		re, err := in.compilePattern(in.str(args[0]), n.line)
		if err != nil {
			return null, err
		}
		subject := hashmap.BytesOf(in.str(args[2]))
		cpu := in.rt.CPU()
		if cpu.RA == nil {
			out, _ := cpu.RegexReplaceAll(fn, re, subject, hashmap.BytesOf(in.str(args[1])))
			return strV(hashmap.ViewOf(out)), nil
		}
		hv := in.hintFor(fn, re, subject)
		out, newHV, _ := cpu.RegexShadowReplace(fn, re, subject, hashmap.BytesOf(in.str(args[1])), hv)
		in.remember(out, newHV)
		return strV(hashmap.ViewOf(out)), nil
	},
	"preg_match": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		re, err := in.compilePattern(in.str(args[0]), n.line)
		if err != nil {
			return null, err
		}
		if len(in.pregMatches(fn, re, hashmap.BytesOf(in.str(args[1])))) > 0 {
			return Int(1), nil
		}
		return Int(0), nil
	},
	"preg_match_all": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		re, err := in.compilePattern(in.str(args[0]), n.line)
		if err != nil {
			return null, err
		}
		return Int(int64(len(in.pregMatches(fn, re, hashmap.BytesOf(in.str(args[1])))))), nil
	},
	"preg_split": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		re, err := in.compilePattern(in.str(args[0]), n.line)
		if err != nil {
			return null, err
		}
		subject := in.str(args[1])
		ms := in.rt.CPU().RegexFindAll(fn, re, hashmap.BytesOf(subject))
		arr := in.newArray(fn)
		prev, idx := 0, int64(0)
		for _, m := range ms {
			in.rt.ASet(fn, arr, hashmap.IntKey(idx), hashmap.StrValue(subject[prev:m.Start]), false)
			idx++
			prev = m.End
		}
		in.rt.ASet(fn, arr, hashmap.IntKey(idx), hashmap.StrValue(subject[prev:]), false)
		return arrV(arr), nil
	},

	// --- arrays ---
	"count": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 1 {
			return null, errArity(n, 1)
		}
		if args[0].K == kArray {
			return Int(int64(in.rt.ASize(fn, args[0].A))), nil
		}
		return Int(1), nil
	},
	"array_keys": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 1 {
			return null, errArity(n, 1)
		}
		if args[0].K != kArray {
			return null, fmt.Errorf("php: line %d: array_keys expects an array", n.line)
		}
		out := in.newArray(fn)
		i := int64(0)
		in.rt.AForeach(fn, args[0].A, func(k hashmap.Key, v hashmap.Value) bool {
			in.rt.ASet(fn, out, hashmap.IntKey(i), hashmap.Value(keyValue(k)), false)
			i++
			return true
		})
		return arrV(out), nil
	},
	"array_values": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 1 {
			return null, errArity(n, 1)
		}
		if args[0].K != kArray {
			return null, fmt.Errorf("php: line %d: array_values expects an array", n.line)
		}
		out := in.newArray(fn)
		i := int64(0)
		in.rt.AForeach(fn, args[0].A, func(k hashmap.Key, v hashmap.Value) bool {
			in.rt.ASet(fn, out, hashmap.IntKey(i), v, false)
			i++
			return true
		})
		return arrV(out), nil
	},
	"array_key_exists": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		if args[1].K != kArray {
			return boolV(false), nil
		}
		k, err := args[0].key()
		if err != nil {
			return null, err
		}
		_, found := in.rt.AGet("array_key_exists", args[1].A, k, true)
		return boolV(found), nil
	},
	"in_array": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 2 {
			return null, errArity(n, 2)
		}
		if args[1].K != kArray {
			return boolV(false), nil
		}
		found := false
		in.rt.AForeach(fn, args[1].A, func(k hashmap.Key, v hashmap.Value) bool {
			found = looseEq(Value(v), args[0])
			return !found
		})
		return boolV(found), nil
	},
	"array_merge": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		out := in.newArray(fn)
		auto := int64(0)
		for _, a := range args {
			if a.K != kArray {
				return null, fmt.Errorf("php: line %d: array_merge expects arrays", n.line)
			}
			in.rt.AForeach(fn, a.A, func(k hashmap.Key, v hashmap.Value) bool {
				if k.IsInt {
					in.rt.ASet(fn, out, hashmap.IntKey(auto), v, false)
					auto++
				} else {
					in.rt.ASet(fn, out, k, v, true)
				}
				return true
			})
		}
		return arrV(out), nil
	},

	// --- misc ---
	"intval": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 1 {
			return null, errArity(n, 1)
		}
		return Int(args[0].toInt()), nil
	},
	"strval": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 1 {
			return null, errArity(n, 1)
		}
		return strV(in.str(args[0])), nil
	},
	"abs": func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 1 {
			return null, errArity(n, 1)
		}
		if x := args[0]; x.K == kInt {
			if x.N < 0 {
				return Int(-x.N), nil
			}
			return x, nil
		}
		x := args[0].toFloat()
		if x < 0 {
			return floatV(-x), nil
		}
		return floatV(x), nil
	},
	"max": reduce2(func(a, b Value) bool { return compare(a, b) >= 0 }),
	"min": reduce2(func(a, b Value) bool { return compare(a, b) <= 0 }),
}

// stringOp1 adapts a one-subject runtime string op into a builtin.
func stringOp1(op func(rt *vm.Runtime, fn string, s []byte) []byte) builtinFn {
	return func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) != 1 {
			return null, errArity(n, 1)
		}
		return strV(hashmap.ViewOf(op(in.rt, fn, hashmap.BytesOf(in.str(args[0]))))), nil
	}
}

// reduce2 adapts a binary keep-left predicate into max/min over args.
func reduce2(keepLeft func(a, b Value) bool) builtinFn {
	return func(in *Interp, fn string, n *callExpr, args []Value) (Value, error) {
		if len(args) == 0 {
			return null, errArity(n, 1)
		}
		best := args[0]
		for _, a := range args[1:] {
			if !keepLeft(best, a) {
				best = a
			}
		}
		return best, nil
	}
}

// compilePattern strips PHP's pattern delimiters (/.../ with optional
// trailing flags, which are rejected except the no-op 'u') and compiles
// through the runtime's regexp manager.
func (in *Interp) compilePattern(pat string, line int) (*regexHandle, error) {
	if len(pat) < 2 {
		return nil, fmt.Errorf("php: line %d: malformed pattern %q", line, pat)
	}
	delim := pat[0]
	end := strings.LastIndexByte(pat[1:], delim)
	if end < 0 {
		return nil, fmt.Errorf("php: line %d: unterminated pattern %q", line, pat)
	}
	body := pat[1 : 1+end]
	flags := pat[2+end:]
	for _, fl := range flags {
		if fl != 'u' {
			return nil, fmt.Errorf("php: line %d: unsupported pattern flag %q", line, fl)
		}
	}
	key, ok := in.patterns[body]
	if !ok {
		if in.patterns == nil {
			in.patterns = map[string]string{}
		}
		key = strings.Clone(body)
		in.patterns[key] = key
	}
	return in.rt.Regex("pcre_compile", key)
}

// regexHandle aliases the engine's compiled pattern type.
type regexHandle = regex.Regex

// hintFor returns the hint vector for subject, generating it with a
// sieve scan when the content was not produced by the previous regexp.
func (in *Interp) hintFor(fn string, re *regexHandle, subject []byte) *isa.HV {
	if in.lastHV != nil && string(subject) == string(in.lastContent) && in.lastHV.Covers(len(subject)) {
		return in.lastHV
	}
	_, hv := in.rt.CPU().RegexSieve(fn, re, subject)
	in.remember(subject, hv)
	return hv
}

// remember makes content, copied, the previous regexp's content.
func (in *Interp) remember(content []byte, hv *isa.HV) {
	in.lastContent, in.lastHV = append(in.lastContent[:0], content...), hv
}

// pregMatches runs a scan, sifted when a hint vector is available.
func (in *Interp) pregMatches(fn string, re *regexHandle, subject []byte) []regex.MatchRange {
	cpu := in.rt.CPU()
	if cpu.RA == nil {
		return cpu.RegexFindAll(fn, re, subject)
	}
	return cpu.RegexShadow(fn, re, subject, in.hintFor(fn, re, subject))
}

// phpSprintf implements a %s/%d/%f/%% subset of sprintf, into the
// request arena.
func phpSprintf(in *Interp, format string, args []Value) string {
	out := in.rt.Arena().Buf(len(format) + 16*len(args))
	ai := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			out = append(out, c)
			continue
		}
		i++
		switch format[i] {
		case '%':
			out = append(out, '%')
		case 's':
			if ai < len(args) {
				out = append(out, in.str(args[ai])...)
				ai++
			}
		case 'd':
			if ai < len(args) {
				out = strconv.AppendInt(out, args[ai].toInt(), 10)
				ai++
			}
		case 'f':
			if ai < len(args) {
				out = strconv.AppendFloat(out, args[ai].toFloat(), 'f', 6, 64)
				ai++
			}
		default:
			out = append(out, '%', format[i])
		}
	}
	return hashmap.ViewOf(out)
}
