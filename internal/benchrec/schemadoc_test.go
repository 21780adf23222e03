package benchrec

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestRecordSchemaDoc holds the record-schema block of
// docs/OPERATIONS.md to record.go: one row per doc-comment group of
// Record's and then Scenario's fields, its json names in the first
// column and its comment as the meaning. On a mismatch the expected
// block is printed; paste it between the markers.
func TestRecordSchemaDoc(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "record.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]*ast.StructType{}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				structs[ts.Name.Name] = st
			}
		}
		return true
	})
	var b strings.Builder
	b.WriteString("| Field | Meaning |\n|---|---|\n")
	for _, typ := range []string{"Record", "Scenario"} {
		st := structs[typ]
		if st == nil {
			t.Fatalf("record.go declares no struct %s", typ)
		}
		var names []string
		var doc string
		flush := func() {
			if len(names) > 0 {
				fmt.Fprintf(&b, "| %s | %s |\n", strings.Join(names, ", "), doc)
			}
			names = nil
		}
		for _, field := range st.Fields.List {
			if field.Doc != nil {
				flush()
				doc = strings.ReplaceAll(strings.Join(strings.Fields(field.Doc.Text()), " "), "|", `\|`)
			} else if len(names) == 0 {
				t.Errorf("%s.%s has no doc comment and none above it", typ, field.Names[0].Name)
			}
			tag, _ := strconv.Unquote(field.Tag.Value)
			name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
			names = append(names, "`"+name+"`")
		}
		flush()
	}
	checkDocBlock(t, "record-schema", b.String())
}

// checkDocBlock compares want with the text between the
// <!-- MARKER:begin --> and <!-- MARKER:end --> lines of
// docs/OPERATIONS.md; on a mismatch it prints the block to paste there.
func checkDocBlock(t *testing.T, marker, want string) {
	t.Helper()
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	begin, end := "<!-- "+marker+":begin -->\n", "<!-- "+marker+":end -->"
	_, rest, ok := strings.Cut(string(raw), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("docs/OPERATIONS.md has no %s … %s block", strings.TrimSpace(begin), end)
	}
	if got != want {
		t.Errorf("docs/OPERATIONS.md: the %s block is not what the code declares; it should read:\n%s%s%s", marker, begin, want, end)
	}
}
