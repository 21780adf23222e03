//go:build !race

package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reach type-checks both modules from source and records, for every
// package-level declaration, the objects its syntax uses. Module
// packages are checked here, once per import path, so an object has one
// identity wherever it is used; the standard library goes to the stdlib
// source importer.
type reach struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	decls []types.Object                  // candidates: what non-main packages declare
	uses  map[types.Object][]types.Object // declaration -> what it mentions
	roots []types.Object                  // what main packages, init and blank declarations mention
}

func (r *reach) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "repro/") {
		return r.std.Import(path)
	}
	return r.load(path, filepath.FromSlash(strings.TrimPrefix(path, "repro/")), false)
}

// load checks the package in dir; tests says whether its _test.go files
// are part of it (only benchmark/'s are: frozen readers, like the rest
// of that module).
func (r *reach) load(path, dir string, tests bool) (*types.Package, error) {
	if p := r.pkgs[path]; p != nil {
		return p, nil
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	var files []*ast.File
	for _, name := range names {
		if ok, _ := build.Default.MatchFile(dir, filepath.Base(name)); !ok || !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(r.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	p, err := (&types.Config{Importer: r}).Check(path, r.fset, files, r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[path] = p
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					r.declare(p, d)
				} else {
					r.declare(p, d, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						r.declare(p, s, s.Name)
					case *ast.ValueSpec:
						r.declare(p, s, s.Names...)
					}
				}
			}
		}
	}
	return p, nil
}

// declare attributes every use inside node to the names it declares, or
// to the roots when nothing has to reach it first: package main, init,
// the blank identifier.
func (r *reach) declare(p *types.Package, node ast.Node, names ...*ast.Ident) {
	var owners []types.Object
	for _, id := range names {
		if p.Name() != "main" && id.Name != "_" {
			owners = append(owners, r.info.Defs[id])
		}
	}
	r.decls = append(r.decls, owners...)
	ast.Inspect(node, func(n ast.Node) bool {
		id, _ := n.(*ast.Ident)
		o := r.info.Uses[id]
		if o == nil {
			return true
		}
		if len(owners) == 0 {
			r.roots = append(r.roots, o)
		}
		for _, owner := range owners {
			r.uses[owner] = append(r.uses[owner], o)
		}
		return true
	})
}

// TestEveryDeclarationHasAReader is the rule DESIGN.md "Verification
// strategy" states: a package-level declaration (func, method, type,
// var, const) in a non-main package of this module is reachable through
// non-test code from one of the module's binaries or from the frozen
// benchmark/ (its tests included), or it does not exist. A method is
// reached when reached code selects it, or when its receiver type is
// reached and an interface requires it — one that non-test code names,
// or one a package it imports exports (fmt.Stringer is how %v reaches a
// String method nobody selects). There is no allow-list: a reference
// implementation that only tests read belongs in a _test.go file, which
// this test never parses.
func TestEveryDeclarationHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	r := &reach{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		pkgs: map[string]*types.Package{},
		uses: map[types.Object][]types.Object{},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || dir == "." {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		_, err = r.load("repro/"+filepath.ToSlash(dir), dir, dir == "benchmark")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	ifaces := map[*types.Interface]bool{}
	for _, tv := range r.info.Types {
		if i, ok := tv.Type.Underlying().(*types.Interface); ok {
			ifaces[i] = true
		}
	}
	for _, p := range r.pkgs {
		for _, imp := range p.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if i, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces[i] = true
					}
				}
			}
		}
	}
	live := map[types.Object]bool{}
	for work := r.roots; len(work) > 0; {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if live[o] {
			continue
		}
		live[o] = true
		work = append(work, r.uses[o]...)
		// A reached type brings in the methods interfaces require of it.
		if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
			ptr := types.NewPointer(tn.Type())
			for i := range ifaces {
				if i.NumMethods() == 0 || !types.Implements(ptr, i) {
					continue
				}
				for k := 0; k < i.NumMethods(); k++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, i.Method(k).Pkg(), i.Method(k).Name())
					work = append(work, m)
				}
			}
		}
	}

	sort.Slice(r.decls, func(i, j int) bool { return r.decls[i].Pos() < r.decls[j].Pos() })
	for _, o := range r.decls {
		if live[o] {
			continue
		}
		name := o.Pkg().Name() + "." + o.Name()
		if f, ok := o.(*types.Func); ok {
			name = strings.Replace(f.FullName(), o.Pkg().Path(), o.Pkg().Name(), 1)
		}
		pos := fset.Position(o.Pos())
		t.Errorf("%s:%d: %s has no reader", pos.Filename, pos.Line, name)
	}
}
