package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/vm"
)

func swRuntime() *vm.Runtime {
	return vm.New(vm.Config{Mitigations: sim.AllMitigations()})
}

func hwRuntime() *vm.Runtime {
	return vm.New(vm.Config{Features: isa.AllAccelerators(), Mitigations: sim.AllMitigations()})
}

func TestByName(t *testing.T) {
	for _, name := range []string{"wordpress", "drupal", "mediawiki", "specweb-banking", "specweb-ecommerce", "laravel", "symfony", "phpscript-blog"} {
		app, err := ByName(name, 1)
		if err != nil || app.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, app, err)
		}
	}
	if _, err := ByName("rails", 1); err == nil {
		t.Errorf("unknown app should error")
	}
}

func TestAppsDeterministic(t *testing.T) {
	for _, name := range []string{"wordpress", "drupal", "mediawiki"} {
		render := func() []byte {
			rt := swRuntime()
			app, _ := ByName(name, 7)
			var out []byte
			for i := 0; i < 3; i++ {
				out = append(out, app.ServeRequest(rt)...)
			}
			return out
		}
		if !bytes.Equal(render(), render()) {
			t.Errorf("%s is not deterministic", name)
		}
	}
}

func TestResponsesNonTrivial(t *testing.T) {
	rt := swRuntime()
	for _, app := range []App{NewWordPress(3), NewDrupal(3), NewMediaWiki(3)} {
		page := app.ServeRequest(rt)
		if len(page) < 1000 {
			t.Errorf("%s page too small: %d bytes", app.Name(), len(page))
		}
		if !bytes.Contains(page, []byte("<a ")) {
			t.Errorf("%s page missing generated tags", app.Name())
		}
	}
}

func TestAcceleratedRenderingEquivalentModuloPadding(t *testing.T) {
	for _, name := range []string{"wordpress", "drupal", "mediawiki"} {
		swApp, _ := ByName(name, 11)
		hwApp, _ := ByName(name, 11)
		swRt, hwRt := swRuntime(), hwRuntime()
		for i := 0; i < 3; i++ {
			sw := string(swApp.ServeRequest(swRt))
			hw := string(hwApp.ServeRequest(hwRt))
			if strings.ReplaceAll(sw, " ", "") != strings.ReplaceAll(hw, " ", "") {
				t.Fatalf("%s request %d: accelerated output differs beyond padding", name, i)
			}
		}
	}
}

func TestLoadGeneratorWarmupDiscarded(t *testing.T) {
	rt := swRuntime()
	app := NewWordPress(5)
	lg := LoadGenerator{Warmup: 5, Requests: 3}
	res := lg.Run(rt, app)
	if res.Requests != 3 || res.App != "wordpress" {
		t.Errorf("result header wrong: %+v", res)
	}
	if res.Cycles <= 0 || res.ResponseBytes <= 0 {
		t.Errorf("no measured work: %+v", res)
	}
	// Cycles must reflect only the measured phase: a run with more warmup
	// must not cost more.
	rt2 := swRuntime()
	app2 := NewWordPress(5)
	res2 := LoadGenerator{Warmup: 20, Requests: 3}.Run(rt2, app2)
	ratio := res2.Cycles / res.Cycles
	if ratio > 1.25 || ratio < 0.75 {
		t.Errorf("warmup leaked into measurement: %0.0f vs %0.0f", res2.Cycles, res.Cycles)
	}
}

func TestKeyStatsMatchPaperObservations(t *testing.T) {
	rt := hwRuntime()
	app := NewWordPress(9)
	res := LoadGenerator{Warmup: 20, Requests: 50, ContextSwitchEvery: 16}.Run(rt, app)
	ks := res.Keys
	if ks.TotalKeys == 0 {
		t.Fatalf("no key stats recorded")
	}
	// §4.2: about 95% of keys are at most 24 bytes.
	if ks.ShortKeyFrac() < 0.90 {
		t.Errorf("short-key fraction %0.3f, want >= 0.90", ks.ShortKeyFrac())
	}
	// §4.2: SETs are 15–25% of hash requests.
	if r := ks.SetRatio(); r < 0.12 || r > 0.30 {
		t.Errorf("SET ratio %0.3f, want in [0.12, 0.30]", r)
	}
	if ks.DynamicFrac() == 0 {
		t.Errorf("workload must exercise dynamic keys")
	}
}

func TestProfileShapeFlatForPHPHotForSPECWeb(t *testing.T) {
	runProfile := func(app App) profile.Profile {
		rt := swRuntime()
		LoadGenerator{Warmup: 10, Requests: 30}.Run(rt, app)
		return profile.FromMeter(rt.Meter())
	}
	wp := runProfile(NewWordPress(2))
	sw := runProfile(NewSPECWebBanking(2))

	// Fig. 1: PHP hottest ~10-12%, ~100 functions to reach 65%.
	if h := wp.HottestFrac(); h < 0.06 || h > 0.18 {
		t.Errorf("wordpress hottest function %0.3f, want ~0.10-0.12", h)
	}
	if n := wp.FuncsForFrac(0.65); n < 40 {
		t.Errorf("wordpress needs %d functions for 65%%, want a flat profile (>=40)", n)
	}
	// SPECWeb: few functions dominate (~90%).
	if n := sw.FuncsForFrac(0.90); n > 6 {
		t.Errorf("specweb needs %d functions for 90%%, want hotspots (<=6)", n)
	}
	if sw.HottestFrac() < 0.5 {
		t.Errorf("specweb hottest %0.3f, want dominant", sw.HottestFrac())
	}
}

func TestAcceleratorsImproveEveryApp(t *testing.T) {
	lg := LoadGenerator{Warmup: 20, Requests: 40, ContextSwitchEvery: 32}
	for _, name := range []string{"wordpress", "drupal", "mediawiki"} {
		swApp, _ := ByName(name, 4)
		hwApp, _ := ByName(name, 4)
		sw := lg.Run(swRuntime(), swApp)
		hw := lg.Run(hwRuntime(), hwApp)
		speedup := 1 - hw.Cycles/sw.Cycles
		if speedup <= 0.02 {
			t.Errorf("%s: accelerators gained only %0.3f", name, speedup)
		}
		if speedup > 0.5 {
			t.Errorf("%s: gain %0.3f implausibly high, calibration off", name, speedup)
		}
	}
}

func TestCorpusDeterminism(t *testing.T) {
	a, b := NewCorpus(3, 8, 200), NewCorpus(3, 8, 200)
	for i := range a.Posts {
		if !bytes.Equal(a.Posts[i], b.Posts[i]) {
			t.Fatalf("corpus not deterministic")
		}
	}
	if len(a.Post(100)) == 0 || len(a.Title(100)) == 0 {
		t.Errorf("wrapped accessors broken")
	}
	if !bytes.HasPrefix(a.AuthorURL(0), []byte("https://localhost/?author=")) {
		t.Errorf("AuthorURL malformed: %s", a.AuthorURL(0))
	}
}

func TestCatalogShapes(t *testing.T) {
	c := newCatalog("wp_", 150)
	if len(c.other) != 150 {
		t.Errorf("other catalog size %d", len(c.other))
	}
	seen := map[string]bool{}
	for _, f := range c.other {
		if seen[f] {
			t.Fatalf("duplicate other function %q", f)
		}
		seen[f] = true
	}
}

func TestScriptedBlogApp(t *testing.T) {
	app := NewBlogScript()
	if app.Name() != "phpscript-blog" {
		t.Fatalf("name = %q", app.Name())
	}
	rt := swRuntime()
	page := app.ServeRequest(rt)
	if len(page) < 2000 {
		t.Fatalf("page too small: %d bytes", len(page))
	}
	for _, want := range []string{"<title>repro blog</title>", "<article id=\"post-1", "AUTHOR", "&#8221;", "<br />"} {
		if !bytes.Contains(page, []byte(want)) {
			t.Errorf("page missing %q", want)
		}
	}
	// Deterministic for the same request sequence.
	rt2 := swRuntime()
	app2 := NewBlogScript()
	if !bytes.Equal(page, app2.ServeRequest(rt2)) {
		t.Errorf("scripted app not deterministic")
	}
	// Second request differs (post ids advance).
	if bytes.Equal(page, app.ServeRequest(rt)) {
		t.Errorf("successive requests should render different posts")
	}
}

func TestScriptedAppAcceleratedEquivalence(t *testing.T) {
	swApp, hwApp := NewBlogScript(), NewBlogScript()
	swRt, hwRt := swRuntime(), hwRuntime()
	for i := 0; i < 3; i++ {
		sw := string(swApp.ServeRequest(swRt))
		hw := string(hwApp.ServeRequest(hwRt))
		if strings.ReplaceAll(sw, " ", "") != strings.ReplaceAll(hw, " ", "") {
			t.Fatalf("request %d: accelerated scripted output differs beyond padding", i)
		}
	}
}

func TestScriptedAppBenefitsFromAccelerators(t *testing.T) {
	lg := LoadGenerator{Warmup: 10, Requests: 25}
	sw := lg.Run(swRuntime(), NewBlogScript())
	hw := lg.Run(hwRuntime(), NewBlogScript())
	gain := 1 - hw.Cycles/sw.Cycles
	if gain <= 0.02 {
		t.Errorf("scripted workload gained only %0.3f from accelerators", gain)
	}
}

func TestNewScriptedRejectsBadSource(t *testing.T) {
	if _, err := NewScripted("bad", "<?php if ("); err == nil {
		t.Errorf("parse error should surface")
	}
}

// TestSPECWebTailNamesBuiltOnce: ServePage used to Sprintf its 24
// "sw_tail_NN" leaf names on every request — 24 allocations, and 24
// fresh string identities per request for the meter to look up the slow
// way. A warmed request now allocates fewer times than the tail is long.
func TestSPECWebTailNamesBuiltOnce(t *testing.T) {
	rt := vm.New(vm.Config{Features: isa.AllAccelerators(), Mitigations: sim.AllMitigations(), TraceCapacity: 4096})
	app := NewSPECWebBanking(1).(PageApp)
	for i := 0; i < 20; i++ {
		app.ServePage(rt, i)
	}
	allocs := testing.AllocsPerRun(100, func() { app.ServePage(rt, 7) })
	t.Logf("warmed SPECWeb ServePage: %.1f allocs", allocs)
	if allocs >= float64(len(swTailFns)) {
		t.Errorf("warmed SPECWeb ServePage allocates %.1f times, want fewer than its %d tail names", allocs, len(swTailFns))
	}
	if n := len(rt.Meter().Functions()); n < len(swTailFns) {
		t.Errorf("%d leaf functions, want the %d tail names among them", n, len(swTailFns))
	}
}
