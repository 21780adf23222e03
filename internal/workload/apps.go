package workload

import (
	"fmt"

	"repro/internal/hashmap"
	"repro/internal/sim"
	"repro/internal/vm"
)

// NewWordPress builds the WordPress-like workload: blog page rendering
// with heavy texturize regexp chains, tag generation, and comment
// formatting. Of the three apps it has the most string and regexp
// opportunity (Fig. 5, Fig. 15).
func NewWordPress(seed int64) App {
	return &appBase{
		p: params{
			name:         "wordpress",
			prefix:       "wp_",
			items:        6,
			attrsPerItem: 4,
			comments:     5,
			optionReads:  60,
			symtabOps:    12,
			urlScans:     10,
			metaReads:    25,
			churn:        50,
			stringOps:    18,
			excerptLen:   115,
			chain:        fig11Chain(),
			otherUops:    158000,
			jitUops:      45000,
		},
		corpus: NewCorpus(seed, 64, 900),
		cat:    newCatalog("wp_", 150),
	}
}

// NewDrupal builds the Drupal-like workload: node/menu rendering with
// heavier configuration and entity hash traffic but the least string and
// regexp time — the paper notes Drupal "does not spend much time either
// in regexp processing or in string functions" and benefits least.
func NewDrupal(seed int64) App {
	return &drupalApp{appBase{
		p: params{
			name:         "drupal",
			prefix:       "drupal_",
			items:        4,
			attrsPerItem: 3,
			comments:     2,
			optionReads:  90,
			symtabOps:    16,
			urlScans:     4,
			metaReads:    40,
			churn:        60,
			stringOps:    4,
			excerptLen:   80,
			chain:        fig11Chain()[:2],
			otherUops:    197000,
			jitUops:      46000,
		},
		corpus: NewCorpus(seed, 64, 350),
		cat:    newCatalog("drupal_", 170),
	}}
}

// drupalApp adds Drupal's entity/menu hash map traffic on top of the
// shared flow.
type drupalApp struct {
	appBase
}

// ServePage renders the Drupal page with the given index.
func (d *drupalApp) ServePage(rt *vm.Runtime, page int) []byte {
	out := d.appBase.ServePage(rt, page)
	// Entity field lookups: short-lived maps with dynamic keys.
	fn := "drupal_entity_field_get"
	ent := rt.NewArray(fn)
	for i := 0; i < 30; i++ {
		k := hashmap.StrKey(fmt.Sprintf("field_%s_%d", pick(templateVars, i).Str, i%9))
		if i%5 == 0 {
			rt.ASet(fn, ent, k, hashmap.IntValue(int64(i)), true)
		} else {
			rt.AGet(pick(d.cat.hash, i), ent, k, true)
		}
	}
	rt.FreeArray(fn, ent)
	return out
}

// NewMediaWiki builds the MediaWiki-like workload: wikitext parsing with
// extra regexp scanning over long article text.
func NewMediaWiki(seed int64) App {
	return &mediaWikiApp{appBase{
		p: params{
			name:         "mediawiki",
			prefix:       "wf",
			items:        3,
			attrsPerItem: 3,
			comments:     2,
			optionReads:  40,
			symtabOps:    10,
			urlScans:     6,
			metaReads:    50,
			churn:        90,
			stringOps:    20,
			excerptLen:   170,
			chain:        fig11Chain()[:3],
			otherUops:    170000,
			jitUops:      42000,
		},
		corpus: NewCorpus(seed, 48, 1600),
		cat:    newCatalog("wf", 140),
	}}
}

// mediaWikiApp adds wikitext link/template scanning.
type mediaWikiApp struct {
	appBase
}

// ServePage renders the MediaWiki page with the given index.
func (m *mediaWikiApp) ServePage(rt *vm.Runtime, page int) []byte {
	out := m.appBase.ServePage(rt, page)
	// Wikitext parsing: sieve over the article, then shadow scans for
	// link and entity patterns.
	fn := "wfParseWikitext"
	body := m.corpus.Post(page)
	if len(body) > 400 {
		body = body[:400]
	}
	sieve := rt.MustRegex(fn, `<`)
	link := rt.MustRegex(fn, `"[a-z ]*"`)
	amp := rt.MustRegex(fn, `&`)
	ms, hv := rt.CPU().RegexSieve(fn, sieve, body)
	_ = ms
	rt.CPU().RegexShadow(fn, link, body, hv)
	rt.CPU().RegexShadow(fn, amp, body, hv)
	return out
}

// --- SPECWeb-like workloads (Fig. 1 contrast) ---

// specWebApp models SPECWeb2005 banking/e-commerce: a hotspotted profile
// where a few functions dominate execution (~90% in very few functions).
type specWebApp struct {
	name   string
	corpus *Corpus
}

// NewSPECWebBanking builds the SPECWeb2005 banking workload.
func NewSPECWebBanking(seed int64) App {
	return &specWebApp{name: "specweb-banking", corpus: NewCorpus(seed, 16, 300)}
}

// NewSPECWebEcommerce builds the SPECWeb2005 e-commerce workload.
func NewSPECWebEcommerce(seed int64) App {
	return &specWebApp{name: "specweb-ecommerce", corpus: NewCorpus(seed+1, 16, 300)}
}

func (s *specWebApp) Name() string { return s.name }

// swTailFns names the tiny tail of the SPECWeb profile, built once: leaf
// names are charged on every request and must not be rebuilt per request.
var swTailFns = func() []string {
	fns := make([]string, 24)
	for i := range fns {
		fns[i] = fmt.Sprintf("sw_tail_%02d", i)
	}
	return fns
}()

// ServePage renders the SPECWeb response for the given page index.
func (s *specWebApp) ServePage(rt *vm.Runtime, page int) []byte {
	rt.BeginRequest()
	ob := rt.NewOutputBuffer("specweb_render")
	mt := rt.Meter()

	// Micro-benchmark behaviour: almost everything in JIT-compiled code,
	// a couple of helper hotspots, a tiny tail.
	mt.AddUops("jit_compiled_code", sim.CatOther, 52000)
	mt.AddUops("jit_helper_arith", sim.CatOther, 11000)
	mt.AddUops("response_writer", sim.CatString, 6000)
	for _, fn := range swTailFns {
		mt.AddUops(fn, sim.CatOther, 180)
	}

	// A little genuine runtime activity.
	arr := rt.NewArray("sw_session_get")
	rt.ASet("sw_session_get", arr, hashmap.StrKey("session"), hashmap.IntValue(int64(page)), false)
	rt.AGet("sw_session_get", arr, hashmap.StrKey("session"), false)
	rt.FreeArray("sw_session_get", arr)
	ob.Write(rt.EscapeHTML("response_writer", s.corpus.Post(page)))
	return ob.Bytes()
}

// ByName builds an app by workload name.
func ByName(name string, seed int64) (App, error) {
	switch name {
	case "wordpress":
		return NewWordPress(seed), nil
	case "drupal":
		return NewDrupal(seed), nil
	case "mediawiki":
		return NewMediaWiki(seed), nil
	case "specweb-banking":
		return NewSPECWebBanking(seed), nil
	case "specweb-ecommerce":
		return NewSPECWebEcommerce(seed), nil
	case "phpscript-blog":
		return NewBlogScript(), nil
	}
	return nil, fmt.Errorf("workload: unknown app %q", name)
}
