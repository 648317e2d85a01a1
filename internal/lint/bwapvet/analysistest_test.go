package bwapvet

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// runTestdata typechecks the fixture package at testdata/src/<dir> under
// the given package path (which is what the deterministic-set gating keys
// on), runs the analyzers, and matches the diagnostics against `// want
// "regexp"` comments in the fixtures — the x/tools analysistest idiom,
// reimplemented on the stdlib source importer.
func runTestdata(t *testing.T, dir, pkgPath string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadTestdata(t, dir, pkgPath)
	diags, err := Run(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, pkg.Fset, pkg.Files, diags)
}

// loadTestdata parses and typechecks the fixture package at
// testdata/src/<dir> under the given package path.
func loadTestdata(t *testing.T, dir, pkgPath string) *Package {
	t.Helper()
	base := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(base, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	// Fixtures import only the stdlib, so the source importer resolves
	// everything without export data.
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := newTypesInfo()
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	return &Package{Path: pkgPath, Fset: fset, Files: files, Pkg: tpkg, Info: info}
}

// A want is one expectation parsed from a `// want "re"` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// parseWants extracts expectations: each `// want` comment carries one or
// more quoted (or backquoted) regexps that diagnostics on the same line
// must match.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				posn := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					pattern := m[1]
					if pattern == "" {
						pattern = m[2]
					} else {
						pattern = strings.ReplaceAll(pattern, `\"`, `"`)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", posn, pattern, err)
					}
					wants = append(wants, &want{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}
	return wants
}

// matchWants pairs every diagnostic with an expectation on its line and
// fails on unexpected diagnostics or unmatched expectations.
func matchWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.used && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic (%s): %s", posn, d.Analyzer, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

func TestWalltime(t *testing.T) {
	runTestdata(t, "walltime", "bwap/internal/sim", Walltime)
}

// TestWalltimeNonDeterministic proves the gate: the same violations in a
// package outside the deterministic set produce nothing.
func TestWalltimeNonDeterministic(t *testing.T) {
	runTestdata(t, "walltime_nondet", "bwap/cmd/bwapd", Walltime)
}

// TestWalltimeExemptFile proves the one sanctioned wall-coupling point:
// a file named server.go in bwap/internal/fleet may read the clock.
func TestWalltimeExemptFile(t *testing.T) {
	runTestdata(t, "walltime_exempt", "bwap/internal/fleet", Walltime)
}

func TestSeededRand(t *testing.T) {
	runTestdata(t, "seededrand", "bwap/internal/stats", SeededRand)
}

func TestMapOrder(t *testing.T) {
	runTestdata(t, "maporder", "bwap/internal/fleet", MapOrder)
}

func TestLockedIO(t *testing.T) {
	runTestdata(t, "lockedio", "example/locked", LockedIO)
}

// frozenTestGolden deliberately disagrees with the fixture package: kindC
// and schemaVersion are pinned to other values, and "gone" pins a constant
// the fixture does not declare.
const frozenTestGolden = `
example/frozen.kindA = 0
example/frozen.kindB = 1
example/frozen.kindC = 1
example/frozen.schemaVersion = 2
example/frozen.envelopeKind = "frozen-envelope"
example/frozen.gone = 9
`

func TestFrozenOrderMismatch(t *testing.T) {
	runTestdata(t, "frozenorder", "example/frozen", NewFrozenOrder(frozenTestGolden))
}

func TestFrozenGoldenSyntax(t *testing.T) {
	if _, err := parseFrozenGolden("bad line without equals\n"); err == nil {
		t.Fatal("want parse error for malformed golden line")
	}
	table, err := parseFrozenGolden(frozenGolden)
	if err != nil {
		t.Fatal(err)
	}
	if len(table["bwap/internal/fleet"]) == 0 || len(table["bwap/internal/cache"]) == 0 {
		t.Fatalf("embedded golden missing expected packages: %v", table)
	}
}

func TestEscapedDirectiveParsing(t *testing.T) {
	fset := token.NewFileSet()
	src := "package p\n\nfunc f() {\n\t//bwap:wallclock reason here\n\t_ = 1\n\t_ = 2\n}\n"
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pass{Analyzer: Walltime, Fset: fset, Files: []*ast.File{f}}
	stmts := f.Decls[0].(*ast.FuncDecl).Body.List
	if !p.Escaped(stmts[0].Pos(), "wallclock") {
		t.Error("directive on preceding line should escape the statement")
	}
	if p.Escaped(stmts[1].Pos(), "wallclock") {
		t.Error("directive must not leak past the next line")
	}
	if p.Escaped(stmts[0].Pos(), "rand") {
		t.Error("directive names must match exactly")
	}
}
