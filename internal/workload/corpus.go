// Package workload implements the synthetic equivalents of the paper's
// evaluated applications: WordPress, Drupal, and MediaWiki from the
// oss-performance suite, plus SPECWeb2005-like banking and e-commerce
// workloads for the Fig. 1 contrast. Each application is a deterministic
// request generator that drives the vm.Runtime with the activity mix,
// key-size distribution, SET ratio, allocation-size distribution, and
// content locality the paper reports, attributed to realistic leaf
// function names so the execution profiles have the right (flat) shape.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/hashmap"
)

// Corpus is a deterministic store of post/page content: the unstructured
// textual data (social media updates, blog posts, news articles) the
// applications turn into HTML.
type Corpus struct {
	rng      *rand.Rand
	words    []string
	Posts    [][]byte // article bodies with occasional special characters
	Titles   [][]byte
	Authors  []string
	Comments [][]byte

	// authorURLs are precomputed read-only URLs over Authors, so the
	// render hot path never re-concats them per request. Callers must
	// not mutate the returned slices.
	authorURLs [][]byte
}

// NewCorpus builds a corpus of n posts with the given approximate body
// length.
func NewCorpus(seed int64, n, bodyLen int) *Corpus {
	c := &Corpus{rng: rand.New(rand.NewSource(seed))}
	c.words = baseWords()
	for i := 0; i < n; i++ {
		c.Posts = append(c.Posts, c.genText(bodyLen, 0.085))
		c.Titles = append(c.Titles, c.genText(40, 0.02))
		c.Authors = append(c.Authors, fmt.Sprintf("author%c%d", 'a'+i%26, i%37))
		c.Comments = append(c.Comments, c.genText(bodyLen/4, 0.12))
		c.authorURLs = append(c.authorURLs, []byte("https://localhost/?author="+c.Authors[i]))
	}
	return c
}

func baseWords() []string {
	return []string{
		"the", "server", "request", "content", "page", "update", "database",
		"cache", "template", "module", "theme", "widget", "plugin", "filter",
		"render", "option", "value", "system", "session", "user", "comment",
		"article", "revision", "category", "index", "search", "result",
		"performance", "hardware", "accelerator", "language", "dynamic",
	}
}

// genText produces body text: words separated by spaces with a controlled
// density of special characters (quotes, apostrophes, angle brackets,
// ampersands, newlines) — the characters the Fig. 11 regexps look for.
func (c *Corpus) genText(n int, specialP float64) []byte {
	out := make([]byte, 0, n+16)
	specials := []string{"'", "\"", "<em>", "</em>", "&", "\n", "<a href=x>", "</a>"}
	for len(out) < n {
		if c.rng.Float64() < specialP {
			out = append(out, specials[c.rng.Intn(len(specials))]...)
		}
		out = append(out, c.words[c.rng.Intn(len(c.words))]...)
		out = append(out, ' ')
	}
	return out[:n]
}

// Post returns post i's body (wrapping).
func (c *Corpus) Post(i int) []byte { return c.Posts[i%len(c.Posts)] }

// Title returns post i's title.
func (c *Corpus) Title(i int) []byte { return c.Titles[i%len(c.Titles)] }

// Author returns post i's author name as an array value.
func (c *Corpus) Author(i int) hashmap.Value { return hashmap.StrValue(c.Authors[i%len(c.Authors)]) }

// Comment returns comment i.
func (c *Corpus) Comment(i int) []byte { return c.Comments[i%len(c.Comments)] }

// AuthorURL returns the Fig. 13-style URL whose last field changes
// between requests — the content reuse opportunity. The bytes are
// precomputed and read-only.
func (c *Corpus) AuthorURL(i int) []byte {
	return c.authorURLs[i%len(c.authorURLs)]
}

// catalog holds leaf-function name pools per activity so the cost meter
// produces profiles with the paper's flat, many-function shape.
type catalog struct {
	hash  []string
	heap  []string
	str   []string
	regex []string
	other []string
}

// newCatalog builds per-app function name pools. prefix distinguishes
// application code (wp_, drupal_, wf...).
func newCatalog(prefix string, otherFns int) *catalog {
	c := &catalog{
		hash: []string{
			"zend_hash_find", "hash_get_bucket", "array_key_exists",
			prefix + "cache_get", prefix + "option_lookup", "symtab_insert",
			"hphp_array_get", "hphp_array_set", "extract_locals",
		},
		heap: []string{
			"smart_malloc", "smart_free", "string_data_alloc",
			"zval_release", "req_arena_alloc", "object_free",
		},
		str: []string{
			"htmlspecialchars", "string_replace_impl", "strtolower_impl",
			"string_trim", "concat_builder", "nl2br", "addcslashes",
			"string_find", "strtr_impl",
		},
		regex: []string{
			"pcre_exec", "preg_replace_impl", "preg_match_all",
			"regex_cache_lookup",
		},
	}
	verbs := []string{
		"render", "filter", "build", "parse", "load", "init", "format",
		"apply", "check", "resolve", "merge", "emit", "walk", "bind",
	}
	nouns := []string{
		"menu", "node", "block", "field", "view", "form", "token", "path",
		"hook", "entity", "query", "theme", "shortcode", "widget", "sidebar",
		"taxonomy", "route", "alias", "config", "schema", "locale", "feed",
	}
	for i := 0; i < otherFns; i++ {
		v := verbs[i%len(verbs)]
		n := nouns[(i/len(verbs))%len(nouns)]
		c.other = append(c.other, fmt.Sprintf("%s%s_%s_%d", prefix, v, n, i%7))
	}
	return c
}

func pick[T any](pool []T, i int) T { return pool[i%len(pool)] }
