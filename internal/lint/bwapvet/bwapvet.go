// Package bwapvet is a static-analysis suite that mechanically enforces
// this repository's determinism & replay contract (DESIGN.md §13). Every
// guarantee the fleet makes — bit-identical JSONL logs per seed, replay
// invariant over the tick pool's width, byte-identical /metrics
// re-ingestion — rests on coding rules that used to be enforced by review
// alone:
//
//   - walltime:    no wall clock (time.Now & friends) in simulated paths;
//   - seededrand:  no math/rand v1 and no ad-hoc RNG construction — streams
//     come from the seeded helpers (stats.NewRand, workload.NewRand);
//   - maporder:    no map-iteration order leaking into ordered state
//     (appends, channel sends, record/metric sinks);
//   - lockedio:    no I/O, exposition writes, or callback invocation while
//     a sync.Mutex/RWMutex is provably held;
//   - frozenorder: pinned constants (event-kind iota block, log schema
//     version, cache snapshot envelope) must match the frozen golden.
//
// The suite runs three ways: as `go vet -vettool=$(which bwapvet) ./...`
// (cmd/bwapvet speaks the unitchecker .cfg protocol), standalone as
// `bwapvet ./...`, and in-process from tests via LoadPackages + Run.
//
// The framework below is a deliberately small, stdlib-only subset of
// golang.org/x/tools/go/analysis — this module has no external
// dependencies, and five analyzers over one module do not need facts,
// result passing, or an analyzer DAG.
package bwapvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Report   func(Diagnostic)

	// directives maps file → line → escape-directive names ("wallclock",
	// "rand", "maporder", "lockedio") found in //bwap: comments.
	directives map[string]map[int][]string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// directivePrefix introduces an escape comment: //bwap:NAME reason...
// The reason is mandatory by convention (reviewed, not machine-checked).
const directivePrefix = "//bwap:"

// buildDirectives indexes every //bwap: escape comment by file and line.
func (p *Pass) buildDirectives() {
	p.directives = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, _, _ := strings.Cut(rest, " ")
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				posn := p.Fset.Position(c.Pos())
				byLine := p.directives[posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					p.directives[posn.Filename] = byLine
				}
				byLine[posn.Line] = append(byLine[posn.Line], name)
			}
		}
	}
}

// Escaped reports whether an escape directive //bwap:name annotates the
// line of pos or the line immediately above it.
func (p *Pass) Escaped(pos token.Pos, name string) bool {
	if p.directives == nil {
		p.buildDirectives()
	}
	posn := p.Fset.Position(pos)
	byLine := p.directives[posn.Filename]
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, d := range byLine[line] {
			if d == name {
				return true
			}
		}
	}
	return false
}

// isTestFile reports whether the file holding pos is a _test.go file.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// fileBase returns the base name of the file f was parsed from.
func (p *Pass) fileBase(f *ast.File) string {
	return filepath.Base(p.Fset.Position(f.Package).Filename)
}

// deterministicPkgs lists the packages bound by the determinism contract:
// everything under internal/ except the lint tooling itself. Code here may
// consume only simulated time and seeded randomness, and may not let map
// iteration order reach ordered state. cmd/, examples/ and the root facade
// run on the wall-clock side of the boundary. The fleet server (the one
// wall-coupled file, listed in walltimeExemptFiles) drives simulated time
// from real time by design.
var deterministicPkgs = map[string]bool{
	"bwap/internal/cache":       true,
	"bwap/internal/core":        true,
	"bwap/internal/experiments": true,
	"bwap/internal/fleet":       true,
	"bwap/internal/memsys":      true,
	"bwap/internal/mm":          true,
	"bwap/internal/numaapi":     true,
	"bwap/internal/obs":         true,
	"bwap/internal/perf":        true,
	"bwap/internal/policy":      true,
	"bwap/internal/sched":       true,
	"bwap/internal/search":      true,
	"bwap/internal/sim":         true,
	"bwap/internal/stats":       true,
	"bwap/internal/topology":    true,
	"bwap/internal/trace":       true,
	"bwap/internal/workload":    true,
}

// walltimeExemptFiles lists files, by package, exempt from the walltime
// analyzer: the fleet server is the process's bridge between wall time and
// simulated time (its background driver paces Fleet.Advance off a real
// ticker), so wall-clock use there is the point, not a leak. Server tests
// are NOT exempt — their real deadlines carry //bwap:wallclock annotations.
var walltimeExemptFiles = map[string]map[string]bool{
	"bwap/internal/fleet": {"server.go": true},
}

// basePkgPath reduces a test-variant package path to the path the
// determinism contract speaks about: "p [p.test]" (in-package test
// variant) and "p_test" (external test package) both map to "p".
func basePkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}

// isDeterministic reports whether the determinism contract applies to the
// package (test variants follow their base package).
func isDeterministic(path string) bool {
	return deterministicPkgs[basePkgPath(path)]
}

// All returns the full bwapvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Walltime, SeededRand, MapOrder, LockedIO, FrozenOrder}
}

// Run applies the analyzers to one loaded package and returns the
// diagnostics sorted by position then message, so output order is
// deterministic regardless of analyzer internals.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}
