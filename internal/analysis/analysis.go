// Package analysis implements omflp-lint: a suite of static analyzers that
// enforce, at compile time, the invariants the rest of this repository only
// pins with tests — determinism of the serving paths, the float-tolerance
// discipline, injected randomness/clocks, and complete state codecs.
//
// The framework mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic, an analysistest-style fixture runner) on the
// standard library alone: packages are enumerated with `go list -deps -json`,
// parsed with go/parser and type-checked bottom-up with go/types, so the
// linter builds and runs with nothing but the Go toolchain. Should the repo
// ever vendor x/tools, the analyzers port mechanically: each Run takes a
// *Pass with the same Fset/Files/Pkg/TypesInfo fields and reports through
// the same Reportf.
//
// The four analyzers and the invariants they guard:
//
//   - maporder: no order-sensitive iteration over Go maps in the
//     determinism-critical packages. Map iteration order is randomized per
//     run; a loop body that appends, accumulates floats, selects a
//     first/min match, draws randomness, or writes output under `range m`
//     silently breaks the byte-identical guarantees the differential and
//     golden tests rely on. Provably commutative loops carry a
//     `//omflp:orderinvariant` annotation; the collect-keys-then-sort idiom
//     is recognized and allowed.
//
//   - floateq: no raw ==/!=/switch on floating-point operands in the
//     determinism-critical packages. All float comparisons with semantic
//     content go through the pdEps/pdMarginEps tolerance discipline
//     (internal/core/pd.go); an exact comparison that is genuinely intended
//     (bit-identity oracles, class tags computed by identical expressions)
//     carries `//omflp:floatexact`.
//
//   - detsource: no ambient nondeterminism in the determinism-critical
//     packages: top-level math/rand draws (rand must flow from a seeded
//     *rand.Rand), wall-clock reads (time.Now and friends), and environment
//     reads are all flagged. Clock reads that feed metrics only are
//     allowlisted in internal/engine (engine.go, metrics.go), package-wide
//     in internal/obs (measurement is its whole job), and elsewhere carry
//     `//omflp:wallclock`.
//
//   - statecodec: every field of a codec-implementing struct is referenced
//     in its MarshalState/UnmarshalState call graph or explicitly annotated
//     `//omflp:nostate` — the field class that otherwise silently breaks
//     restore(marshal(A)) bit-identity. That every algorithm the engine
//     hosts has a codec is checked by the compiler: the engine's tenant
//     type requires one.
//
// Run it locally with `go run ./cmd/omflp-lint ./...`; CI gates on a clean
// run. See CONTRIBUTING.md for the annotation contract.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape deliberately matches
// golang.org/x/tools/go/analysis.Analyzer so the checks port mechanically.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -analyzers filters.
	Name string
	// Doc is the one-paragraph description shown by `omflp-lint -list`.
	Doc string
	// Suppression is the annotation marker (without the leading "omflp:")
	// that silences this analyzer's diagnostics on the annotated line and
	// the line below it. Empty means the analyzer cannot be suppressed.
	Suppression string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Marker returns the full in-comment annotation ("omflp:<suppression>"), or
// "" when the analyzer is unsuppressable.
func (a *Analyzer) Marker() string {
	if a.Suppression == "" {
		return ""
	}
	return "omflp:" + a.Suppression
}

// A Pass provides one analyzer run over one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// markers[filename][line] lists the omflp: annotation markers present
	// on that line (in a comment). Built once per package by the driver.
	markers map[string]map[int][]string

	diagnostics []Diagnostic
}

// A Diagnostic is one finding, addressed by position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless an applicable suppression
// annotation covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.suppressedAt(position) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressedAt reports whether the analyzer's marker annotates the
// diagnostic's line — either as an end-of-line comment on the line itself or
// as a comment on the line directly above.
func (p *Pass) suppressedAt(pos token.Position) bool {
	marker := p.Analyzer.Marker()
	if marker == "" {
		return false
	}
	lines := p.markers[pos.Filename]
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, m := range lines[l] {
			if m == marker {
				return true
			}
		}
	}
	return false
}

// buildMarkers scans a file's comments for omflp: annotations and records
// the line each one sits on.
func buildMarkers(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := map[string]map[int][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "omflp:")
				if idx < 0 {
					continue
				}
				// The marker is the omflp: token up to the first space;
				// anything after it is free-form rationale.
				marker := c.Text[idx:]
				if sp := strings.IndexAny(marker, " \t\n"); sp >= 0 {
					marker = marker[:sp]
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int][]string{}
				}
				out[pos.Filename][pos.Line] = append(out[pos.Filename][pos.Line], marker)
			}
		}
	}
	return out
}

// Run applies the analyzers to the packages and returns all diagnostics in
// (file, line, column, analyzer) order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		markers := buildMarkers(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				markers:   markers,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			diags = append(diags, pass.diagnostics...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, FloatEq, DetSource, StateCodec}
}

// DeterministicPkgs lists the import paths whose serving/experiment code
// must be bit-reproducible: the differential oracles, golden snapshots and
// cross-worker-count identity tests all assert byte equality over outputs
// produced by these packages. maporder, floateq and detsource fire only
// here; statecodec applies module-wide.
var DeterministicPkgs = []string{
	"repro/internal/core",
	"repro/internal/engine",
	"repro/internal/sim",
	"repro/internal/workload",
	"repro/internal/baseline",
	"repro/internal/lowerbound",
	"repro/internal/obs",
}

// deterministic reports whether the package's import path is in the
// determinism-critical set.
func deterministic(path string) bool {
	for _, p := range DeterministicPkgs {
		if path == p {
			return true
		}
	}
	return false
}

// typeIsFloat reports whether t's core type is a floating-point basic type.
func typeIsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
