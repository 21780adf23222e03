package php_test

import (
	"testing"

	"repro/internal/php"
	"repro/internal/workload"
)

// TestBlogScriptVerifies runs the bytecode verifier over the program the
// phpscript-blog workload serves.
func TestBlogScriptVerifies(t *testing.T) {
	prog, err := php.Parse(workload.BlogScript)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := php.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := php.VerifyCompiled(comp); err != nil {
		t.Fatalf("bytecode verifier: %v", err)
	}
}
