// Package lint implements emxvet, the repository's static-analysis
// suite. The whole reproduction rests on one invariant that runtime
// tests can only sample: simulations are pure functions of
// core.RunIdentity (the content-addressed run cache and the golden
// panel hashes both assume bit-for-bit determinism). The analyzers here
// catch the determinism faults no test does, at compile time. No
// analyzer follows a call into another function:
//
//   - detsource: no host clocks, global randomness, or environment
//     reads in determinism-critical packages (//emx:hostclock marks
//     the intentional host-observability sites)
//   - maporder: no iteration over Go maps in those packages unless the
//     keys are sorted before use, the loop body is order-invariant, or
//     the site carries //emx:orderinvariant
//   - emxdirective: every //emx: directive is well-formed, known, and
//     not a silently-shadowed duplicate
//
// What a runtime test already catches is left to it:
// testing.AllocsPerRun tests pin the hot paths' allocations, the sim
// calendar panics on any item scheduled in the past (a negative delay
// included), and the observed-versus-unobserved sweep tests pin that
// tracing never changes a result.
//
// The suite is built directly on go/ast and go/types — the module is
// dependency-free, so there is no golang.org/x/tools here. Packages
// are loaded through `go list -export`, which supplies export data for
// dependencies from the build cache.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Related is a secondary position attached to a diagnostic, such as
// the first copy of a duplicated directive.
type Related struct {
	Pos     token.Position `json:"pos"`
	Message string         `json:"message"`
}

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Package  string         `json:"package,omitempty"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	Related  []Related      `json:"related,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is one named check. Run inspects a single package and
// reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Package:  p.Pkg.ImportPath,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportRelated records a finding with secondary positions attached.
func (p *Pass) ReportRelated(pos token.Pos, related []Related, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Package:  p.Pkg.ImportPath,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Related:  related,
	})
}

// RelatedAt builds one Related note at a position of this pass's fset.
func (p *Pass) RelatedAt(pos token.Pos, format string, args ...any) Related {
	return Related{
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	}
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Sources    map[string][]byte // file name -> content
	Directives *Directives
}

// Analyzers returns the full emxvet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetSource,
		MapOrder,
		EmxDirective,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies each analyzer to each package and returns the combined
// findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
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
	return diags
}
