package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arena"
	"repro/internal/isa"
	"repro/internal/php"
	"repro/internal/sim"
	"repro/internal/vm"
)

// lifetimeProbe keeps a script string of each kind the engine holds past
// a request — an inline-cache key, a regexp pattern, and the content a
// regexp produced — in the request arena, and on odd pages shifts
// everything after its first statement 64 bytes further in: the next
// request reads each of them before reaching its old address, so a view
// kept instead of a copy reads whatever the arena holds there.
const lifetimeProbe = `<?php
function get($a, $k) { return $a[$k]; }
if ($req % 2) { $pad = str_repeat("-", 64); }
$s = ($req % 2) ? "x\"y" : "xQy";
echo preg_replace("/" . "\"" . "/", "Q", $s), "|";
echo get(["k1" => "v"], "k" . 1), "|", $req, "\n";
`

// TestScriptStringsOutliveNoRequest serves pages 1..n of the blog, of
// every examples/*.php and of lifetimeProbe on one engine per tier and
// accelerator setting, zeroing every retained arena chunk between
// requests. Each body must equal a fresh engine's render of the page,
// and the engine's simulated cycles and inline-cache counters must equal
// those of a twin whose arena is left alone: a string kept past its
// request as an arena view reads zeros on one engine and stale bytes on
// the other.
func TestScriptStringsOutliveNoRequest(t *testing.T) {
	scripts := [][2]string{{"blog", BlogScript}, {"probe", lifetimeProbe}}
	paths, err := filepath.Glob("../../examples/*.php")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, [2]string{filepath.Base(p), string(src)})
	}
	const pages = 8
	for _, accel := range []bool{false, true} {
		cfg := vm.Config{Mitigations: sim.AllMitigations(), TraceCapacity: -1}
		if accel {
			cfg.Features = isa.AllAccelerators()
		}
		for _, mode := range []php.TierMode{php.TierInterp, php.TierBytecode} {
			for _, script := range scripts {
				name, src := script[0], script[1]
				app := scriptedApp(t, name, src, mode)
				poisoned, twin := vm.New(cfg), vm.New(cfg)
				for page := 1; page <= pages; page++ {
					got := bytes.Clone(app.ServePage(poisoned, page))
					app.ServePage(twin, page)
					if want := scriptedApp(t, name, src, mode).ServePage(vm.New(cfg), page); !bytes.Equal(got, want) {
						t.Fatalf("accel=%v %s %s page %d: body differs from a fresh engine's\n got  %q\n want %q", accel, mode, name, page, got, want)
					}
					if a, b := poisoned.Meter().TotalCycles(), twin.Meter().TotalCycles(); a != b {
						t.Fatalf("accel=%v %s %s page %d: %.2f simulated cycles after zeroing the arena, %.2f without", accel, mode, name, page, a, b)
					}
					a, b := app.TierSnapshotFor(poisoned), app.TierSnapshotFor(twin)
					if a.ICHits != b.ICHits || a.ICMisses != b.ICMisses {
						t.Fatalf("accel=%v %s %s page %d: IC hits/misses %d/%d after zeroing the arena, %d/%d without", accel, mode, name, page, a.ICHits, a.ICMisses, b.ICHits, b.ICMisses)
					}
					poisoned.BeginRequest()
					for i := 0; i < 4; i++ {
						poisoned.Arena().Make(arena.DefaultChunk)
					}
				}
			}
		}
	}
}

// scriptedApp builds an app over src on the given engine.
func scriptedApp(t *testing.T, name, src string, mode php.TierMode) *ScriptedApp {
	t.Helper()
	app, err := NewScripted(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.SetScriptTier(mode, php.DefaultTierPolicy()); err != nil {
		t.Fatal(err)
	}
	return app
}
