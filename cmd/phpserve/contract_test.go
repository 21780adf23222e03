package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// benchmarkDir is the benchmark module, which reads both servers from
// outside: /metrics families by name and /stats keys by JSON tag.
const benchmarkDir = "../../benchmark"

// seriesName matches a metric family name the benchmark spells out,
// flagName a command-line flag it passes.
var (
	seriesName = regexp.MustCompile(`^php(serve|router)_[a-z0-9_]+$`)
	flagName   = regexp.MustCompile(`^-[a-z]+$`)
)

// TestBenchmarkContract holds the servers to the names the benchmark
// reads and passes: every phpserve_*/phprouter_* string literal in
// benchmark/*.go is a family on that server's /metrics, every json tag
// of benchmark/scrape.go's serverStats is a key of phpserve's /stats,
// and every -flag the benchmark starts phpserve or phprouter with is one
// that binary defines (its flags: block of docs/OPERATIONS.md, which
// TestFlagsDoc holds to the code). All three lists are read from the
// benchmark's sources, so a name the benchmark starts using is held from
// then on.
func TestBenchmarkContract(t *testing.T) {
	series, keys, flags := benchmarkNames(t)
	if len(series) == 0 || len(keys) == 0 || len(flags["phpserve"]) == 0 || len(flags["phprouter"]) == 0 {
		t.Fatalf("found %d series names, %d /stats keys and %d/%d phpserve/phprouter flags in %s, want some of each",
			len(series), len(keys), len(flags["phpserve"]), len(flags["phprouter"]), benchmarkDir)
	}
	for bin, passed := range flags {
		defined := docFlags(t, bin)
		for _, f := range passed {
			if !defined[f] {
				t.Errorf("benchmark starts %s with %s, which %s does not define", bin, f, bin)
			}
		}
	}

	c := testConfig(1, 2, 1, nil)
	c.CacheCapacity, c.Pages, c.ZipfS = 8, 64, 1.0
	backend := httptest.NewServer(newTestServer(t, c).Handler())
	defer backend.Close()
	r := serve.NewRouter(serve.RouterConfig{})
	r.AddBackend("0", strings.TrimPrefix(backend.URL, "http://"))
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	for i := 0; i < 2; i++ { // a render, then a hit
		resp, err := http.Get(front.URL + "/?page=3")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	served := map[string]bool{}
	for _, url := range []string{backend.URL, front.URL} {
		fams, err := obs.ParsePromText(strings.NewReader(scrape(t, url, "/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			served[f.Name] = true
		}
	}
	for _, name := range series {
		if !served[name] {
			t.Errorf("benchmark reads %s, which no server's /metrics serves", name)
		}
	}

	var stats map[string]any
	if err := json.Unmarshal([]byte(scrape(t, backend.URL, "/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		var v any = stats
		for _, part := range strings.Split(key, ".") {
			m, _ := v.(map[string]any)
			v = m[part]
		}
		if v == nil {
			t.Errorf("benchmark reads /stats %s, which phpserve does not serve", key)
		}
	}
}

// benchmarkNames parses the benchmark's sources: the metric family names
// among their string literals, the dotted /stats key path of every
// json-tagged field of serverStats, and per binary the -flag literals of
// the argument list of each startProc(bins.<binary>, ...) call, the
// bodies of functions called in it included.
func benchmarkNames(t *testing.T) (series, keys []string, flags map[string][]string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(benchmarkDir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	funcs := map[string]*ast.FuncDecl{}
	var starts []*ast.CallExpr
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				funcs[n.Name.Name] = n
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "startProc" && len(n.Args) > 0 {
					starts = append(starts, n)
				}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && seriesName.MatchString(s) && !seen[s] {
					seen[s] = true
					series = append(series, s)
				}
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "serverStats" {
					keys = jsonKeys(st, "")
				}
			}
			return true
		})
	}
	flags = map[string][]string{}
	for _, call := range starts {
		bin, ok := call.Args[0].(*ast.SelectorExpr)
		if !ok {
			t.Fatalf("startProc's first argument is %T, want bins.<binary>", call.Args[0])
		}
		visited := map[string]bool{}
		var collect func(ast.Node)
		collect = func(root ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && flagName.MatchString(s) {
						flags[bin.Sel.Name] = append(flags[bin.Sel.Name], s)
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && funcs[id.Name] != nil && !visited[id.Name] {
						visited[id.Name] = true
						collect(funcs[id.Name].Body)
					}
				}
				return true
			})
		}
		collect(call.Args[len(call.Args)-1])
	}
	return series, keys, flags
}

// docFlags reads the -flag names of the flags:BIN block of
// docs/OPERATIONS.md.
func docFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(raw), "<!-- flags:"+bin+":begin -->\n")
	block, _, _ := strings.Cut(rest, "<!-- flags:"+bin+":end -->")
	defined := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		if name, ok := strings.CutPrefix(line, "| `-"); ok {
			name, _, _ = strings.Cut(name, "`")
			defined["-"+name] = true
		}
	}
	if len(defined) == 0 {
		t.Fatalf("docs/OPERATIONS.md has no flags:%s block", bin)
	}
	return defined
}

// jsonKeys lists the json tags of st's fields as dotted paths under
// prefix, descending into struct-typed fields.
func jsonKeys(st *ast.StructType, prefix string) []string {
	var keys []string
	for _, field := range st.Fields.List {
		if field.Tag == nil {
			continue
		}
		tag, _ := strconv.Unquote(field.Tag.Value)
		name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		keys = append(keys, prefix+name)
		typ := field.Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if sub, ok := typ.(*ast.StructType); ok {
			keys = append(keys, jsonKeys(sub, prefix+name+".")...)
		}
	}
	return keys
}
