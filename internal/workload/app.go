package workload

import (
	"fmt"

	"repro/internal/hashmap"
	"repro/internal/sim"
	"repro/internal/vm"
)

// App is a synthetic web application: a deterministic request generator
// over a vm.Runtime.
//
// Memory ownership: the returned body is backed by memory the app and
// its runtime recycle between requests (the reusable output buffer and
// the runtime's request arena). It is valid only until the next render
// on the same app/runtime pair — in pool terms, only while the serving
// worker is held. Callers that keep a body longer (caches, response
// writers that outlive the worker) must copy it first.
type App interface {
	// Name returns the workload name (wordpress, drupal, mediawiki, ...).
	Name() string
	// ServeRequest renders one page and returns the response body.
	ServeRequest(rt *vm.Runtime) []byte
}

// PageApp is an App whose requests have page identity: ServePage renders
// the page with the given index, and the same (corpus seed, page) pair
// always produces the same bytes regardless of request history. That
// stable identity is what makes a response cache key meaningful —
// ServeRequest is exactly ServePage over an internally advancing page
// sequence. Every built-in workload implements it. The App ownership
// contract applies: the returned bytes are recycled by the next render.
type PageApp interface {
	App
	// ServePage renders the page with the given index.
	ServePage(rt *vm.Runtime, page int) []byte
}

// params tunes one application's per-request activity mix. The values per
// app are calibrated so the post-mitigation execution-time breakdown
// matches Fig. 5 and the accelerated improvements match Figs. 14–15.
type params struct {
	name         string
	prefix       string
	items        int            // posts / nodes / sections per page
	attrsPerItem int            // attributes per rendered tag
	comments     int            // comments rendered per page
	optionReads  int            // static-key configuration lookups
	symtabOps    int            // dynamic-key symbol table traffic (extract)
	urlScans     int            // author-URL regexp scans (content reuse)
	metaReads    int            // dynamic-key post-metadata reads per item
	churn        int            // short-lived zval allocations per item
	stringOps    int            // extra shortcode/needle scans per item
	excerptLen   int            // bytes of each body the texturize chain sees
	chain        []vm.ChainStep // texturize regexp chain (content sifting)
	otherUops    float64        // per-request uops spread over other functions
	jitUops      float64        // per-request uops in the hottest JIT function
}

// boxedInts pre-boxes the integers the render path stores into arrays.
// The Go runtime interns boxed values below 256 only; page- and
// item-derived indexes go well past that, and boxing one per store shows
// up as the hottest allocation site in a steady-state render. Indexes
// beyond the table fall back to a plain (allocating) box.
var boxedInts = func() []any {
	vals := make([]any, 8192)
	for i := range vals {
		vals[i] = i
	}
	return vals
}()

// boxInt returns i as an interface value without allocating when i is
// within the pre-boxed table.
func boxInt(i int) any {
	if i >= 0 && i < len(boxedInts) {
		return boxedInts[i]
	}
	return i
}

// appBase implements the request flow shared by the three PHP apps.
type appBase struct {
	p      params
	corpus *Corpus
	cat    *catalog
	reqSeq int

	dbCache *vm.Array // persistent metadata cache (the "database")

	// ob is the reusable render output buffer (reset per request); obRT
	// remembers which runtime it charges so a fresh buffer is built if
	// the app is ever driven on a different runtime.
	ob   *vm.OutputBuffer
	obRT *vm.Runtime
	// renderFn and buildTagFn are the prefix-derived attribution names,
	// concatenated once instead of per request.
	renderFn   string
	buildTagFn string
	// chain is the texturize chain structure, refreshed (not rebuilt)
	// each render; the per-request regexp-manager lookups still run.
	chain *vm.Chain
}

// Name returns the workload name.
func (a *appBase) Name() string { return a.p.name }

// fig11Chain is the paper's WordPress code snippet: four consecutive
// regexps over the same content, each looking for a special character
// (apostrophe, double quote, newline, opening angle bracket).
func fig11Chain() []vm.ChainStep {
	return []vm.ChainStep{
		{Pattern: `(?<=\w)'`, Repl: "&#8217;"},
		{Pattern: `"`, Repl: "&#8221;"},
		{Pattern: "\n", Repl: "<br />"},
		{Pattern: `<`, Repl: "&lt;"},
	}
}

// ServeRequest renders the next page in the app's request sequence.
func (a *appBase) ServeRequest(rt *vm.Runtime) []byte {
	a.reqSeq++
	return a.renderPage(rt, a.reqSeq)
}

// ServePage renders the page with the given index, independent of the
// request sequence: the same (corpus seed, page) pair yields the same
// bytes on any worker with the same seed, which is the identity the
// response cache keys on.
func (a *appBase) ServePage(rt *vm.Runtime, page int) []byte {
	return a.renderPage(rt, page)
}

// renderPage is the shared request flow: every place the legacy path
// used the advancing reqSeq now derives from the explicit page index, so
// ServeRequest(n-th call) and ServePage(n) are bit-for-bit identical.
// The returned bytes alias the app's reusable output buffer and are
// valid only until the next render (see the App contract).
func (a *appBase) renderPage(rt *vm.Runtime, page int) []byte {
	rt.BeginRequest()
	if a.renderFn == "" {
		a.renderFn = a.p.prefix + "render_page"
		a.buildTagFn = a.p.prefix + "build_tag"
	}
	if a.ob == nil || a.obRT != rt {
		a.ob = rt.NewOutputBuffer(a.renderFn)
		a.obRT = rt
	} else {
		a.ob.Reset(a.renderFn)
	}
	ob := a.ob

	a.ensureDBCache(rt)
	rt.BeginSpan("load_config")
	a.loadConfiguration(rt, page)
	rt.EndSpan()
	rt.BeginSpan("route_request")
	a.routeRequest(rt, page)
	rt.EndSpan()

	rt.BeginSpan("render_items")
	for i := 0; i < a.p.items; i++ {
		a.renderItem(rt, ob, page*a.p.items+i)
	}
	rt.EndSpan()
	rt.BeginSpan("render_comments")
	for i := 0; i < a.p.comments; i++ {
		a.renderComment(rt, ob, page*a.p.comments+i)
	}
	rt.EndSpan()

	rt.BeginSpan("other_charges")
	a.chargeOther(rt)
	rt.EndSpan()
	return ob.Bytes()
}

// ensureDBCache lazily populates the persistent metadata cache the
// templates read from: a long-lived hash map whose GETs vastly outnumber
// its SETs, keeping the overall SET ratio in the paper's 15-25% band.
func (a *appBase) ensureDBCache(rt *vm.Runtime) {
	if a.dbCache != nil {
		return
	}
	fn := pick(a.cat.hash, 1)
	a.dbCache = rt.NewArray(fn)
	for i := 0; i < 48; i++ {
		k := hashmap.StrKey(metaKeys[i])
		rt.ASet(fn, a.dbCache, k, a.corpus.AuthorBytesVal(i), true)
	}
}

// loadConfiguration models option/config loading: mostly static literal
// keys (IC/HMI-specializable) with some dynamic ones.
func (a *appBase) loadConfiguration(rt *vm.Runtime, page int) {
	fn := pick(a.cat.hash, 0)
	opts := rt.NewArray(fn)
	for i := 0; i < a.p.optionReads; i++ {
		k := hashmap.StrKey(pick(optionKeys, i))
		if i%7 == 0 {
			rt.ASet(fn, opts, k, boxInt(i), false)
		} else {
			rt.AGet(pick(a.cat.hash, i), opts, k, false)
		}
	}
	// Dynamic-key symbol table traffic: the extract() pattern.
	sym := rt.NewArray("symtab_insert")
	src := rt.NewArray("extract_locals")
	for i := 0; i < a.p.symtabOps; i++ {
		k := hashmap.StrKey(pick(templateVars, page+i))
		rt.ASet(pick(a.cat.hash, i+3), src, k, a.corpus.AuthorVal(i), true)
	}
	rt.Extract("extract_locals", sym, src)
	for i := 0; i < a.p.symtabOps; i++ {
		k := hashmap.StrKey(pick(templateVars, page+i))
		rt.AGet(pick(a.cat.hash, i+5), sym, k, true)
	}
	rt.FreeArray(fn, opts)
	rt.FreeArray("symtab_insert", sym)
	rt.FreeArray("extract_locals", src)
}

// routeRequest models URL parsing: the same regexp over nearly identical
// URLs, the content reuse opportunity (Fig. 13).
func (a *appBase) routeRequest(rt *vm.Runtime, page int) {
	fn := pick(a.cat.regex, 0)
	re := rt.MustRegex(fn, `https://[a-z]+/\?author=[a-z0-9]+`)
	for i := 0; i < a.p.urlScans; i++ {
		url := a.corpus.AuthorURL(page + i/3)
		rt.ScanURL(fn, re, 0x4010, url)
	}
}

// renderItem renders one post/node/section: attribute tag generation
// (heap reuse), the texturize regexp chain (content sifting), and HTML
// escaping.
func (a *appBase) renderItem(rt *vm.Runtime, ob *vm.OutputBuffer, idx int) {
	rt.BeginSpan("render_item")
	defer rt.EndSpan()
	strFn := pick(a.cat.str, idx)
	heapFn := pick(a.cat.heap, idx)

	// Title: trim, case-normalize, escape.
	title := rt.Trim(strFn, a.corpus.Title(idx))
	title = rt.ToLower(pick(a.cat.str, idx+1), title)
	titleStr := rt.NewStr(heapFn, rt.EscapeHTML("htmlspecialchars", title))

	// Attribute tag: retrieve values, escape, concatenate, recycle.
	attrs := rt.NewArray(heapFn)
	for j := 0; j < a.p.attrsPerItem; j++ {
		rt.ASet(pick(a.cat.hash, idx+j), attrs, hashmap.StrKey(pick(attrKeys, j)),
			a.corpus.AuthorBytesVal(idx+j), true)
	}
	tag := rt.BuildTag(a.buildTagFn, "a", attrs, titleStr.Bytes())
	ob.Write(tag)
	rt.FreeArray(heapFn, attrs)
	rt.FreeStr(heapFn, titleStr)

	// Post metadata traffic against the persistent cache (dynamic keys):
	// mostly reads with periodic cache refreshes, landing the SET ratio
	// in the paper's 15-25% band.
	for j := 0; j < a.p.metaReads; j++ {
		k := hashmap.StrKey(metaKeys[(idx+j)%len(metaKeys)])
		if j%8 == 7 {
			rt.ASet(pick(a.cat.hash, idx+j), a.dbCache, k, boxInt(idx), true)
		} else {
			rt.AGet(pick(a.cat.hash, idx+j), a.dbCache, k, true)
		}
	}

	// Short-lived zval churn: intermediate string objects allocated and
	// recycled while assembling the item (the strong-reuse pattern).
	for j := 0; j < a.p.churn; j++ {
		z := rt.NewStr(pick(a.cat.heap, idx+j), a.corpus.Title(idx + j)[:16])
		rt.FreeStr(pick(a.cat.heap, idx+j), z)
	}

	// Shortcode and needle scans over the body (strpos-style). The body
	// is never mutated in place, so it can alias the corpus directly.
	body := a.corpus.Post(idx)
	for j := 0; j < a.p.stringOps; j++ {
		rt.Find(pick(a.cat.str, idx+j), body, shortcodeBytes[j%len(shortcodeBytes)])
	}

	// Body: the texturize chain runs over the excerpt; the whole body is
	// HTML-escaped on the way out.
	if len(a.p.chain) > 0 {
		ex := a.p.excerptLen
		if ex <= 0 || ex > len(body) {
			ex = len(body)
		}
		ch, err := rt.RefreshChain(a.chain, "wptexturize", a.p.chain)
		a.chain = ch
		if err == nil {
			excerpt, _ := ch.Apply("wptexturize", body[:ex])
			// Splice the texturized excerpt and the untouched tail into
			// one request-arena slice.
			merged := rt.Arena().Buf(len(excerpt) + len(body) - ex)
			merged = append(merged, excerpt...)
			merged = append(merged, body[ex:]...)
			body = merged
		}
	}
	body = rt.EscapeHTML("htmlspecialchars", body)
	bodyStr := rt.NewStr(pick(a.cat.heap, idx+1), body)
	ob.Write(bodyStr.Bytes())
	rt.FreeStr(pick(a.cat.heap, idx+1), bodyStr)
}

// renderComment renders one comment: nl2br, escaping, small allocations.
func (a *appBase) renderComment(rt *vm.Runtime, ob *vm.OutputBuffer, idx int) {
	rt.BeginSpan("render_comment")
	defer rt.EndSpan()
	strFn := pick(a.cat.str, idx+4)
	c := a.corpus.Comment(idx)
	c = rt.NL2BR(strFn, c)
	esc := rt.NewStr(pick(a.cat.heap, idx+2), rt.EscapeHTML("htmlspecialchars", c))
	ob.Write(esc.Bytes())
	rt.FreeStr(pick(a.cat.heap, idx+2), esc)
}

// chargeOther accounts the application logic outside the four categories:
// the JIT-compiled hottest function plus a flat spread of VM and
// application leaf functions (the Fig. 1 tail).
func (a *appBase) chargeOther(rt *vm.Runtime) {
	mt := rt.Meter()
	mt.AddUops("jit_compiled_code", sim.CatOther, a.p.jitUops)
	n := len(a.cat.other)
	for i := 0; i < n; i++ {
		// Mildly skewed flat distribution.
		w := a.p.otherUops * 2 / float64(n) * (1 - float64(i)/(1.4*float64(n)))
		mt.AddUops(a.cat.other[i], sim.CatOther, w)
	}
	// Abstraction overheads of the managed runtime, calibrated to the
	// paper's §3 magnitudes: reference counting contributes the most
	// (~4.4% of baseline execution), then type checks, then kernel
	// involvement in allocation, all removed by the respective
	// mitigations.
	mt.AddRefCount(int(a.p.otherUops / 14))
	mt.AddTypeCheck(int(a.p.otherUops / 24))
	kern := a.p.otherUops / 38
	if mt.Mit.TunedAllocator {
		kern /= 8
	}
	mt.AddUops("kernel_alloc", sim.CatKernel, kern)
}

var optionKeys = []string{
	"siteurl", "blogname", "template", "stylesheet", "active_plugins",
	"timezone_string", "permalink_structure", "default_category",
	"posts_per_page", "date_format", "users_can_register", "home",
}

var templateVars = []string{
	"post_title", "post_author", "post_date", "comment_count",
	"category_name", "page_template", "request_uri", "query_string",
	"session_token", "locale_code", "menu_active", "sidebar_state",
	"very_long_template_variable_name_overflow", // >24B: hardware bypass
}

var attrKeys = []string{"href", "title", "class", "rel", "id", "data-idx"}

var shortcodes = []string{
	"[gallery", "[caption", "[embed", "<!--more-->", "{{Infobox", "[[Category:",
}

// shortcodeBytes is the byte view of shortcodes, converted once so the
// per-item needle scans do not re-convert per call.
var shortcodeBytes = func() [][]byte {
	out := make([][]byte, len(shortcodes))
	for i, s := range shortcodes {
		out[i] = []byte(s)
	}
	return out
}()

// metaKeys precomputes every "meta_<var>_<n>" key the metadata paths
// can produce: the (templateVars, n%48) pattern repeats with period
// lcm(len(templateVars), 48), which 48*len(templateVars) is always a
// multiple of. Index with n % len(metaKeys).
var metaKeys = func() []string {
	keys := make([]string, 48*len(templateVars))
	for i := range keys {
		keys[i] = fmt.Sprintf("meta_%s_%d", pick(templateVars, i), i%48)
	}
	return keys
}()
