package vm

import (
	"repro/internal/hashmap"
	"repro/internal/isa"
	"repro/internal/regex"
	"repro/internal/sim"
	"repro/internal/strlib"
	"repro/internal/trace"
)

// --- String function wrappers (trace-recording) ---

func (r *Runtime) recStr(fn string, op strlib.Op, n int) {
	r.record(trace.KindStringOp, fn, uint64(op), uint64(n), 0)
}

// EscapeHTML escapes HTML metacharacters (htmlspecialchars).
func (r *Runtime) EscapeHTML(fn string, content []byte) []byte {
	r.recStr(fn, strlib.OpHTMLSpecial, len(content))
	return r.cpu.StrHTMLEscape(fn, content)
}

// Find locates pattern in subject (strpos).
func (r *Runtime) Find(fn string, subject, pattern []byte) int {
	r.recStr(fn, strlib.OpFind, len(subject))
	return r.cpu.StrFind(fn, subject, pattern)
}

// Replace substitutes old with new (str_replace).
func (r *Runtime) Replace(fn string, subject, old, new []byte) []byte {
	r.recStr(fn, strlib.OpReplace, len(subject))
	return r.cpu.StrReplace(fn, subject, old, new)
}

// ToUpper upper-cases (strtoupper).
func (r *Runtime) ToUpper(fn string, subject []byte) []byte {
	r.recStr(fn, strlib.OpToUpper, len(subject))
	return r.cpu.StrToUpper(fn, subject)
}

// ToLower lower-cases (strtolower).
func (r *Runtime) ToLower(fn string, subject []byte) []byte {
	r.recStr(fn, strlib.OpToLower, len(subject))
	return r.cpu.StrToLower(fn, subject)
}

// Trim strips whitespace (trim).
func (r *Runtime) Trim(fn string, subject []byte) []byte {
	r.recStr(fn, strlib.OpTrim, len(subject))
	return r.cpu.StrTrim(fn, subject)
}

// NL2BR inserts "<br />" before newlines (nl2br).
func (r *Runtime) NL2BR(fn string, subject []byte) []byte {
	r.recStr(fn, strlib.OpNL2BR, len(subject))
	return r.cpu.StrNL2BR(fn, subject)
}

// AddSlashes backslash-escapes quotes and backslashes (addslashes).
func (r *Runtime) AddSlashes(fn string, subject []byte) []byte {
	r.recStr(fn, strlib.OpAddSlashes, len(subject))
	return r.cpu.StrAddSlashes(fn, subject)
}

// Translate maps characters (strtr).
func (r *Runtime) Translate(fn string, subject, from, to []byte) []byte {
	r.recStr(fn, strlib.OpTranslate, len(subject))
	return r.cpu.StrTranslate(fn, subject, from, to)
}

// Compare compares strings (strcmp).
func (r *Runtime) Compare(fn string, a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	r.recStr(fn, strlib.OpCompare, n)
	return r.cpu.StrCompare(fn, a, b)
}

// Concat joins byte slices (the `.` operator / implode).
func (r *Runtime) Concat(fn string, parts ...[]byte) []byte {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	r.recStr(fn, strlib.OpConcat, total)
	return r.cpu.StrConcat(fn, parts...)
}

// --- Output buffer ---

// OutputBuffer accumulates the response body (PHP's ob_* layer).
type OutputBuffer struct {
	r   *Runtime
	fn  string
	buf []byte
}

// NewOutputBuffer starts a response buffer attributed to fn.
func (r *Runtime) NewOutputBuffer(fn string) *OutputBuffer {
	return &OutputBuffer{r: r, fn: fn}
}

// Reset re-arms the buffer for a new response attributed to fn,
// retaining its capacity — the render-output recycling hook. Bytes
// returned by earlier Bytes() calls become invalid (they alias the
// buffer about to be overwritten).
func (o *OutputBuffer) Reset(fn string) {
	o.fn = fn
	o.buf = o.buf[:0]
}

// Write appends raw bytes.
func (o *OutputBuffer) Write(b []byte) {
	o.r.recStr(o.fn, strlib.OpConcat, len(b))
	o.r.cpu.Meter.AddUops(o.fn, sim.CatString, o.r.cpu.Meter.Model.StringCost(len(b)))
	o.buf = append(o.buf, b...)
}

// WriteString appends a string.
func (o *OutputBuffer) WriteString(s string) { o.Write([]byte(s)) }

// Bytes returns the accumulated response.
func (o *OutputBuffer) Bytes() []byte { return o.buf }

// --- Tag generation ---

// BuildTag renders an HTML tag with escaped attribute values pulled from
// attrs in insertion order — the "retrieve attribute values, store them
// in string objects, concatenate" pattern behind the heap manager's
// strong memory reuse observation (§4.3).
func (r *Runtime) BuildTag(fn string, name string, attrs *Array, body []byte) []byte {
	r.spans.Begin("vm:build_tag")
	defer r.spans.End()
	out := r.Concat(fn, []byte("<"), []byte(name))
	r.AForeach(fn, attrs, func(k hashmap.Key, v interface{}) bool {
		vb, _ := v.([]byte)
		val := r.NewStr(fn, r.EscapeHTML(fn, vb))
		out = r.Concat(fn, out, []byte(" "), []byte(k.Str), []byte(`="`), val.Bytes(), []byte(`"`))
		r.FreeStr(fn, val)
		return true
	})
	if body == nil {
		return r.Concat(fn, out, []byte(" />"))
	}
	out = r.Concat(fn, out, []byte(">"), body, []byte("</"), []byte(name), []byte(">"))
	return out
}

// --- Regexp chains (Fig. 11) ---

// ChainStep is one regexp in a consecutive-replacement chain.
type ChainStep struct {
	Pattern string
	Repl    string
}

// Chain is a series of consecutive regexps over the same content, the
// structure the VM's function-level dataflow analysis discovers to enable
// content sifting (§4.5): the first regexp is the sieve, the rest are
// shadows.
//
// The whitespace-padding realignment assumes — exactly as the paper does
// when invoking the HTML specification — that the chain's patterns are
// insensitive to inserted linear whitespace. Single-special-character
// patterns like the Fig. 11 set (apostrophe, double quote, newline,
// opening angle bracket) satisfy this trivially; a pattern that must
// match a multi-character run without intervening spaces (for example
// `<[a-z]+>`) is not eligible for a replacement chain and should be run
// through RegexShadow as a scan instead.
type Chain struct {
	r    *Runtime
	res  []*regex.Regex
	repl [][]byte // replacement bytes, converted once at build time
}

// RefreshChain compiles a chain through the regexp manager, reusing a
// previously built chain's structure: the regexp-manager lookups (and
// their simulated cost) run on every call, but the Go-side slices are
// rebuilt in place. Passing nil builds a fresh chain. A caller that
// re-derives the same chain every request — the dataflow analysis runs
// per invocation even though its result is stable — keeps one Chain per
// runtime and refreshes it.
func (r *Runtime) RefreshChain(c *Chain, fn string, steps []ChainStep) (*Chain, error) {
	if c == nil {
		c = &Chain{}
	}
	c.r = r
	c.res = c.res[:0]
	sameRepl := len(c.repl) == len(steps)
	for i, s := range steps {
		re, err := r.Regex(fn, s.Pattern)
		if err != nil {
			return nil, err
		}
		c.res = append(c.res, re)
		if sameRepl && string(c.repl[i]) != s.Repl {
			sameRepl = false
		}
	}
	if !sameRepl {
		c.repl = c.repl[:0]
		for _, s := range steps {
			c.repl = append(c.repl, []byte(s.Repl))
		}
	}
	return c, nil
}

// Apply runs the chain over content: the sieve scans everything and
// produces the HV; every replacement (including the sieve's own) runs as
// a shadow under the evolving HV with whitespace-padded alignment. The
// returned content equals the unaccelerated chain output modulo the
// padding the HTML specification permits. The total replacement count is
// also returned.
func (c *Chain) Apply(fn string, content []byte) ([]byte, int) {
	if len(c.res) == 0 {
		return content, 0
	}
	c.r.spans.Begin("vm:chain_apply")
	defer c.r.spans.End()
	c.r.record(trace.KindRegexScan, fn, 0, uint64(len(content)), 0)
	total := 0
	_, hv := c.r.cpu.RegexSieve(fn, c.res[0], content)
	for i, re := range c.res {
		var n int
		var newHV *isa.HV
		content, newHV, n = c.r.cpu.RegexShadowReplace(fn, re, content, c.repl[i], hv)
		hv = newHV
		total += n
	}
	return content, total
}

// ScanURL runs an anchored, reuse-accelerated scan of a URL-like content
// string (the Fig. 13 pattern). pc identifies the call site. It returns
// the length of the longest accepted prefix, or -1.
func (r *Runtime) ScanURL(fn string, re *regex.Regex, pc uint64, content []byte) int {
	r.record(trace.KindRegexScan, fn, pc, uint64(len(content)), 0)
	return r.cpu.RegexScanReuse(fn, re, pc, content)
}
