package workload

import (
	"sync"
	"testing"

	"repro/internal/vm"
)

// TestScriptedAppConcurrentServe hammers a single ScriptedApp from many
// goroutines, each with its own runtime — the shape the shared
// compiled-program cache creates. Run under -race it holds the app's
// per-runtime engine map to concurrent first use.
func TestScriptedAppConcurrentServe(t *testing.T) {
	app := NewBlogScript()
	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := vm.New(vm.Config{})
			for i := 1; i <= perG; i++ {
				if out := app.ServePage(rt, i); len(out) == 0 {
					t.Error("empty response from concurrent ServePage")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSpecWebAppConcurrentServe gives the same treatment to specWebApp:
// one app, many runtimes, no shared mutable state.
func TestSpecWebAppConcurrentServe(t *testing.T) {
	app := NewSPECWebBanking(1)
	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := vm.New(vm.Config{})
			for i := 1; i <= perG; i++ {
				if out := app.ServePage(rt, i); len(out) == 0 {
					t.Error("empty response from concurrent ServePage")
					return
				}
			}
		}()
	}
	wg.Wait()
}
