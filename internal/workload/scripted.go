package workload

import (
	"sync"

	"repro/internal/php"
	"repro/internal/vm"
)

// scriptEntry shares one parsed program — and, lazily, one compiled
// bytecode artifact — across every ScriptedApp built from the same
// source. Pool workers each construct their own app instance, so without
// this cache each worker would re-parse and re-compile identical source.
type scriptEntry struct {
	prog *php.Program
	once sync.Once
	comp *php.Compiled
	err  error
}

// scriptCache maps source text to its shared entry.
var scriptCache sync.Map // string -> *scriptEntry

func (e *scriptEntry) compiled() (*php.Compiled, error) {
	e.once.Do(func() { e.comp, e.err = php.Compile(e.prog) })
	return e.comp, e.err
}

// ScriptedApp runs an actual PHP program per request through the
// interpreter, so the workload's hash/heap/string/regexp activity comes
// from real script execution rather than a Go-coded request recipe.
//
// Each worker runtime gets a persistent php.Interp engine, so inline
// caches and type feedback survive across requests (per-worker, like a
// PHP-FPM process's JIT state), while the compiled program itself is
// shared read-only across the pool.
type ScriptedApp struct {
	name string
	ent  *scriptEntry

	mu         sync.Mutex
	configured bool
	tier       php.TierMode
	engines    sync.Map // *vm.Runtime -> *php.Interp
}

// NewScripted wraps parsed PHP source as an App. Identical source shares
// one parsed (and compiled) program across instances.
func NewScripted(name, src string) (*ScriptedApp, error) {
	if v, ok := scriptCache.Load(src); ok {
		return &ScriptedApp{name: name, ent: v.(*scriptEntry)}, nil
	}
	prog, err := php.Parse(src)
	if err != nil {
		return nil, err
	}
	ent := &scriptEntry{prog: prog}
	if v, loaded := scriptCache.LoadOrStore(src, ent); loaded {
		ent = v.(*scriptEntry)
	}
	return &ScriptedApp{name: name, ent: ent}, nil
}

// Name returns the workload name.
func (s *ScriptedApp) Name() string { return s.name }

// SetScriptTier selects the execution engine for subsequent requests and
// compiles the shared program; the policy is ignored. Existing
// per-runtime engines are discarded so every worker picks the new mode
// up on its next request; call it while the pool is quiesced
// (Pool.ConfigureScriptTier holds every worker).
func (s *ScriptedApp) SetScriptTier(mode php.TierMode, _ php.TierPolicy) error {
	if _, err := s.ent.compiled(); err != nil {
		return err
	}
	s.mu.Lock()
	s.configured = true
	s.tier = mode
	s.mu.Unlock()
	s.engines.Range(func(k, _ interface{}) bool {
		s.engines.Delete(k)
		return true
	})
	return nil
}

// TierSnapshotFor returns the tier state of the engine bound to rt. A
// runtime that has not served since SetScriptTier reports the configured
// engine with zero counts, so the engine a server reports never changes
// with its first request; the snapshot is zero while no tier is
// configured. The caller must own the runtime's worker.
func (s *ScriptedApp) TierSnapshotFor(rt *vm.Runtime) php.TierSnapshot {
	if v, ok := s.engines.Load(rt); ok {
		return v.(*php.Interp).TierSnapshot()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.configured {
		return php.TierSnapshot{}
	}
	return php.TierSnapshot{Enabled: true, Mode: s.tier.String()}
}

// engine returns rt's persistent interpreter, creating and
// tier-configuring it on first use. The engine is only ever driven by
// the goroutine owning the worker, but creation may race a concurrent
// SetScriptTier reset, hence the mutex around the mode read.
func (s *ScriptedApp) engine(rt *vm.Runtime) *php.Interp {
	if v, ok := s.engines.Load(rt); ok {
		return v.(*php.Interp)
	}
	s.mu.Lock()
	configured, mode := s.configured, s.tier
	s.mu.Unlock()
	in := php.New(rt, s.ent.prog)
	if configured {
		// SetScriptTier compiled the program and returned any error, and
		// EnableTier fails only when it has to compile: neither can fail.
		comp, _ := s.ent.compiled()
		_ = in.EnableTier(comp, mode)
	}
	if v, loaded := s.engines.LoadOrStore(rt, in); loaded {
		return v.(*php.Interp)
	}
	return in
}

// ServePage runs the script once with $req set to the page index. The
// body is rt's engine's output buffer, which its next render reuses
// (App's ownership contract).
func (s *ScriptedApp) ServePage(rt *vm.Runtime, page int) []byte {
	in := s.engine(rt)
	in.SetGlobal("req", php.Int(int64(page)))
	out, err := in.Run()
	if err != nil {
		panic("workload: scripted app failed: " + err.Error())
	}
	return out
}

// BlogScript is a self-contained PHP blog page: option loading, post
// rendering with texturize-style preg_replace chains, tag building with
// escaped attributes, and comment formatting — the WordPress request
// shape, as an actual PHP program.
const BlogScript = `<!DOCTYPE html>
<?php
function site_options() {
	return [
		'blogname' => "repro blog",
		'posts_per_page' => 4,
		'tagline' => "it's \"hardware\" for PHP",
	];
}

function load_post($id) {
	$author = "author" . ($id % 7);
	$body = "The quick brown fox said \"hello\" to the lazy dog. ";
	$body .= str_repeat("Plain prose fills the middle of the article with ordinary words. ", 6);
	$body .= "It's a wrap.
New paragraph starts here with <em>markup</em> and more text.";
	return [
		'id' => $id,
		'title' => "  Post number " . $id . " isn't boring  ",
		'author' => $author,
		'href' => "/?p=" . $id,
		'body' => $body,
	];
}

function texturize($text) {
	$text = preg_replace('/"/', "&#8221;", $text);
	$text = preg_replace('/\n/', "<br />", $text);
	$text = preg_replace('/</', "&lt;", $text);
	return $text;
}

function render_post($post) {
	$meta = "";
	foreach (["author", "id", "href"] as $fld) {
		$meta .= $post[$fld] . ";";
	}
	extract($post);
	$out = "<article id=\"post-" . $id . "\">";
	$out .= "<h2><a href=\"" . htmlspecialchars($href) . "\">";
	$out .= htmlspecialchars(trim($title)) . "</a></h2>";
	$out .= "<address>" . strtoupper($author) . "</address>";
	$out .= "<div>" . texturize($body) . "</div>";
	$out .= "</article>";
	return $out;
}

function render_comment($post_id, $n) {
	$text = "Comment $n on post $post_id: nice article!
It has a line break and a \"quote\".";
	return "<li>" . nl2br(addslashes($text)) . "</li>";
}

$opts = site_options();
echo "<html><head><title>", htmlspecialchars($opts['blogname']), "</title></head><body>";
echo "<p>", texturize($opts['tagline']), "</p>";

for ($i = 0; $i < $opts['posts_per_page']; $i++) {
	$post = load_post($req * 10 + $i);
	echo render_post($post);
	echo "<ul>";
	for ($c = 0; $c < 2; $c++) {
		echo render_comment($post['id'], $c);
	}
	echo "</ul>";
}
echo "</body></html>";
`

// NewBlogScript builds the scripted blog workload.
func NewBlogScript() *ScriptedApp {
	app, err := NewScripted("phpscript-blog", BlogScript)
	if err != nil {
		panic(err) // the embedded script must parse
	}
	return app
}
