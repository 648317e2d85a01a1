package bwapvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The dead-declaration check. Whether a declaration is dead depends on the
// whole program, and bwapvet's analyzers see one package per `go vet`
// unit, so the check runs here, over the module load the other
// whole-module tests already pay, with perfbench as a second root: it
// imports internal packages directly.
//
// A declaration is every package-level func, type, const and var, and
// every method, in a non-test file of the bwap module. It is live when a
// non-test file references it, or a test file of another package does.
// References from inside the declaration itself (a recursive call, a
// method naming its own receiver type) do not count. A method is also
// live when an interface in the loaded program names it, or when it has
// one of the names that the standard library calls through reflection or
// its own interfaces. Struct fields are out of scope. The root facade's
// exported names are the module's public API and are not checked.

// reflectiveMethods are method names the standard library reaches through
// interfaces or reflection the loaded source never spells out: fmt, error,
// encoding/json, net/http, io, sort and container/heap.
var reflectiveMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// deadExempt lists declarations, by the key deadDeclarations reports, that
// stay although nothing references them, each with its reason. It is
// empty: the tree carries no dead declaration.
var deadExempt = map[string]string{}

// A deadDecl is one finding: a declaration no caller outside its own
// package's tests reaches.
type deadDecl struct {
	key      string // "pkg.Name" or "pkg.Recv.Name"
	name     string // "Name" or "Recv.Name"
	pkg      *Package
	pos      token.Pos
	lines    int  // lines of the declaration, its doc comment included
	ownTests bool // its own package's tests reference it
}

func (d deadDecl) String() string {
	why := "is referenced by nothing"
	if d.ownTests {
		why = "is referenced only by its own package's tests"
	}
	return d.name + " " + why
}

// deadDeclarations returns the declarations of the packages inScope
// accepts that nothing live references, in key order.
func deadDeclarations(pkgs []*Package, inScope func(path string) bool) []deadDecl {
	decls := make(map[string]*deadDecl)
	live := make(map[string]bool)
	tested := make(map[string]bool)
	ifaceMethods := make(map[string]bool)

	for _, pkg := range pkgs {
		// The interfaces of the loaded program: every interface type that
		// an expression or object of the loaded source has, the standard
		// library's included.
		for _, tv := range pkg.Info.Types {
			addInterfaceMethods(tv.Type, ifaceMethods)
		}
		for _, obj := range pkg.Info.Uses {
			addInterfaceMethods(obj.Type(), ifaceMethods)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				addInterfaceMethods(obj.Type(), ifaceMethods)
			}
		}
		home := strings.TrimSuffix(basePath(pkg.Path), "_test")
		for _, f := range pkg.Files {
			test := strings.HasSuffix(pkg.Fset.File(f.Pos()).Name(), "_test.go")
			if !test && inScope(home) {
				collectDecls(pkg, f, decls)
			}
			for _, d := range f.Decls {
				self := declKeys(pkg, d)
				var node ast.Node = d
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					// Inspect the method without its receiver list.
					node = &ast.FuncDecl{Doc: fd.Doc, Name: fd.Name, Type: fd.Type, Body: fd.Body}
				}
				ast.Inspect(node, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					key := objKey(pkg.Info.Uses[id])
					if key == "" || self[key] {
						return true
					}
					if !test || home != keyPkg(key) {
						live[key] = true
					} else {
						tested[key] = true
					}
					return true
				})
			}
		}
	}

	var out []deadDecl
	for key, d := range decls {
		if live[key] {
			continue
		}
		if _, method, ok := strings.Cut(d.name, "."); ok &&
			(ifaceMethods[method] || reflectiveMethods[method]) {
			continue
		}
		d.ownTests = tested[key]
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// addInterfaceMethods records the method names of t if it is an interface.
func addInterfaceMethods(t types.Type, names map[string]bool) {
	if t == nil {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			names[iface.Method(i).Name()] = true
		}
	}
}

// collectDecls records the declarations of one non-test file.
func collectDecls(pkg *Package, f *ast.File, decls map[string]*deadDecl) {
	add := func(id *ast.Ident, doc *ast.CommentGroup, end token.Pos) {
		key := objKey(pkg.Info.Defs[id])
		if key == "" || id.Name == "_" || decls[key] != nil {
			return
		}
		start := id.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		decls[key] = &deadDecl{
			key:   key,
			name:  strings.TrimPrefix(key, keyPkg(key)+"."),
			pkg:   pkg,
			pos:   id.Pos(),
			lines: pkg.Fset.Position(end).Line - pkg.Fset.Position(start).Line + 1,
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
				continue
			}
			add(d.Name, d.Doc, d.End())
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				doc := d.Doc
				if d.Lparen.IsValid() {
					doc = nil
				}
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					add(s.Name, doc, s.End())
				case *ast.ValueSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					for _, id := range s.Names {
						add(id, doc, s.End())
					}
				}
			}
		}
	}
}

// declKeys returns the keys a top-level declaration defines, and for a
// method its receiver type's too, so that references from inside the
// declaration do not keep it alive.
func declKeys(pkg *Package, d ast.Decl) map[string]bool {
	keys := make(map[string]bool)
	switch d := d.(type) {
	case *ast.FuncDecl:
		fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
		keys[objKey(fn)] = true
		if recv := recvNamed(fn); recv != nil {
			keys[objKey(recv.Obj())] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				keys[objKey(pkg.Info.Defs[s.Name])] = true
			case *ast.ValueSpec:
				for _, id := range s.Names {
					keys[objKey(pkg.Info.Defs[id])] = true
				}
			}
		}
	}
	delete(keys, "")
	return keys
}

// objKey names a package-level object or a method of a named type in a way
// that is the same in every typechecked variant of its package: "pkg.Name"
// or "pkg.Recv.Name". Other objects (locals, fields, interface methods,
// builtins) have no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := basePath(obj.Pkg().Path())
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
			recv := recvNamed(fn)
			if recv == nil || types.IsInterface(recv) {
				return ""
			}
			return path + "." + recv.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// recvNamed returns the named type a method is declared on.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// basePath strips the test-variant suffix go list appends to a package
// path: "bwap/internal/fleet [bwap/internal/fleet.test]".
func basePath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// exported reports whether every part of a dotted name is exported.
func exported(name string) bool {
	for _, part := range strings.Split(name, ".") {
		if !token.IsExported(part) {
			return false
		}
	}
	return true
}

// keyPkg returns the package path of a key: the text up to the first dot
// after the last slash.
func keyPkg(key string) string {
	slash := strings.LastIndexByte(key, '/')
	return key[:slash+1+strings.IndexByte(key[slash+1:], '.')]
}

// inModule reports whether path is a package of the bwap module, apart
// from perfbench, which is its own module.
func inModule(path string) bool {
	return (path == "bwap" || strings.HasPrefix(path, "bwap/")) &&
		!strings.HasPrefix(path, "bwap/perfbench") &&
		!strings.Contains(path, "/testdata/")
}

var (
	perfbenchOnce sync.Once
	perfbenchPkgs []*Package
	perfbenchErr  error
)

// loadPerfbench loads the benchmark module's packages, test variants
// included, once per test binary.
func loadPerfbench(t *testing.T) []*Package {
	t.Helper()
	perfbenchOnce.Do(func() {
		perfbenchPkgs, perfbenchErr = LoadPackages("../../../perfbench", ".")
	})
	if perfbenchErr != nil {
		t.Fatal(perfbenchErr)
	}
	return perfbenchPkgs
}

// TestNoDeadDeclarations is the least-code gate: the module carries no
// declaration that only its own package's tests, or nothing at all,
// reaches. Delete what it reports, or move a test hook into the
// package's _test.go files.
func TestNoDeadDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and typechecks the whole module")
	}
	pkgs := append(append([]*Package(nil), loadModule(t)...), loadPerfbench(t)...)
	lines := 0
	for _, d := range deadDeclarations(pkgs, inModule) {
		if keyPkg(d.key) == "bwap" && exported(d.name) {
			continue // the root facade's public API
		}
		if _, ok := deadExempt[d.key]; ok {
			continue
		}
		lines += d.lines
		t.Errorf("%s: %s.%s (%d lines)", d.pkg.Fset.Position(d.pos), keyPkg(d.key), d, d.lines)
	}
	if t.Failed() {
		t.Logf("%d lines in dead declarations", lines)
	}
	for key, reason := range deadExempt {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exemption %s carries no reason", key)
		}
	}
}

// TestDeadDeclarationsFixture checks the rule on a fixture: it reports a
// declaration nothing references and one only the package's own test file
// references, and spares a declaration a non-test file references and a
// method an interface names.
func TestDeadDeclarationsFixture(t *testing.T) {
	pkg := loadTestdata(t, "deadcode", "bwap/cmd/deadcode")
	var diags []Diagnostic
	for _, d := range deadDeclarations([]*Package{pkg}, inModule) {
		diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "deadcode", Message: fmt.Sprint(d)})
	}
	matchWants(t, pkg.Fset, pkg.Files, diags)
}
