package php

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vm"
)

// examplesDir locates the repository's examples/*.php scripts from the
// package directory.
const examplesDir = "../../examples"

func exampleScripts(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(examplesDir, "*.php"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no example scripts under %s", examplesDir)
	}
	return paths
}

// TestExamplesGolden runs every examples/*.php under all four
// configurations — interpreter and bytecode tier, software and
// accelerated runtime — and requires byte-identical output, pinned to a
// committed golden file. Regenerate goldens with UPDATE_GOLDEN=1.
func TestExamplesGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") == "1"
	for _, path := range exampleScripts(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".php")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runTier(t, swRT(), string(src), TierInterp, nil)
			if err != nil {
				t.Fatalf("interp/sw: %v", err)
			}
			goldenPath := filepath.Join(examplesDir, "golden", name+".golden")
			if update {
				if err := os.WriteFile(goldenPath, []byte(ref), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1): %v", err)
			}
			if ref != string(golden) {
				t.Errorf("interp/sw diverges from golden:\n want %q\n got  %q", golden, ref)
			}
			configs := []struct {
				name string
				rt   *vm.Runtime
				mode TierMode
			}{
				{"bytecode/sw", swRT(), TierBytecode},
				{"interp/hw", hwRT(), TierInterp},
				{"bytecode/hw", hwRT(), TierBytecode},
			}
			for _, cfg := range configs {
				got, err := runTier(t, cfg.rt, string(src), cfg.mode, nil)
				if err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				if got != ref {
					t.Errorf("%s diverges:\n want %q\n got  %q", cfg.name, ref, got)
				}
			}
		})
	}
}

// TestExamplesTierAutoConverges runs each example 24 times on one
// engine configured with -tier auto's spelling, which is bytecode from
// the first request: every render must match the first (inline caches,
// type feedback and the request arena carry over between them) and the
// snapshot must count each request.
func TestExamplesTierAutoConverges(t *testing.T) {
	mode, err := ParseTierMode("auto")
	if err != nil || mode != TierBytecode {
		t.Fatalf(`ParseTierMode("auto") = %v, %v; want bytecode`, mode, err)
	}
	for _, path := range exampleScripts(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".php")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			in := New(swRT(), prog)
			if err := in.EnableTier(nil, mode); err != nil {
				t.Fatal(err)
			}
			var first string
			for i := 0; i < 24; i++ {
				out, err := in.Run()
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if i == 0 {
					first = string(out)
				} else if string(out) != first {
					t.Fatalf("request %d output changed:\n want %q\n got  %q", i, first, out)
				}
			}
			if snap := in.TierSnapshot(); snap.Mode != "bytecode" || snap.Requests != 24 {
				t.Errorf("snapshot should count 24 bytecode requests: %+v", snap)
			}
		})
	}
}
