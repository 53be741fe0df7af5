// Package lint implements emxvet, the repository's static-analysis
// suite. The whole reproduction rests on invariants that runtime tests
// can only sample: simulations are pure functions of core.RunIdentity
// (the content-addressed run cache and the golden panel hashes both
// assume bit-for-bit determinism) and the scheduler fast lane stays
// allocation-free. The analyzers here enforce those invariants
// structurally, at compile time.
//
// Intraprocedural suite (v1):
//
//   - detsource: no host clocks, global randomness, or environment
//     reads in determinism-critical packages (//emx:hostclock marks
//     the intentional host-observability sites)
//   - maporder: no iteration over Go maps in those packages unless the
//     keys are sorted before use, the loop body is order-invariant, or
//     the site carries //emx:orderinvariant
//   - hotalloc: functions marked //emx:hotpath must not create
//     closures, box non-pointer values into interfaces, or append to
//     slices that were not preallocated with an explicit capacity
//   - simtime: no negative or host-derived values flowing into the
//     simulated clock (sim.After and friends), and no arithmetic that
//     mixes host time with simulated cycle counts
//   - flushbefore: coroutine-side code must flush the thread's
//     operation buffer before observing engine or machine state, so
//     observations happen at true simulated time
//   - emxdirective: every //emx: directive is well-formed, known, and
//     not a silently-shadowed duplicate
//
// Interprocedural suite (v2), built on a whole-program call graph and
// a forward taint engine (callgraph.go, dataflow.go):
//
//   - fingerprintpurity: a Config field excluded from Fingerprint must
//     not be read on a result-affecting path unless the field carries
//     //emx:nofingerprint
//   - obspurity: code reachable from obs hook entry points must not
//     write engine/machine state or charge cycles (//emx:obsexempt)
//   - hotpropagate: //emx:hotpath propagates through static calls, so
//     hot-path findings fire in helpers, with the propagation chain
//     attached to each diagnostic
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

// Related is a secondary position attached to a diagnostic: a
// propagation-chain step or a result-affecting read site.
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

// Pass carries one analyzer's view of one package, plus the shared
// whole-program context for the interprocedural analyzers.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     *Program
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

// Program is the whole set of packages one Run analyzes, with the
// lazily built interprocedural artifacts shared across analyzers (the
// call graph is built once, not per analyzer per package).
type Program struct {
	Pkgs []*Package

	graph *Graph
	cache map[string]any
}

// NewProgram wraps loaded packages for analysis.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs, cache: map[string]any{}}
}

// Graph returns the call graph, building it on first use.
func (prog *Program) Graph() *Graph {
	if prog.graph == nil {
		prog.graph = BuildGraph(prog.Pkgs)
	}
	return prog.graph
}

// cached memoizes an analyzer-level artifact (a reachability set, a
// summary table) under key for the lifetime of the Program. Run is
// single-threaded, so a plain map suffices.
func (prog *Program) cached(key string, build func() any) any {
	if v, ok := prog.cache[key]; ok {
		return v
	}
	v := build()
	prog.cache[key] = v
	return v
}

// Analyzers returns the full emxvet suite in reporting order. The
// interprocedural analyzers run after the intraprocedural ones so that
// directive consumption (hotalloc uses //emx:coldpath before
// hotpropagate audits leftovers) happens in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetSource,
		MapOrder,
		HotAlloc,
		SimTime,
		FlushBefore,
		EmxDirective,
		FingerprintPurity,
		ObsPurity,
		HotPropagate,
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
	return RunProgram(NewProgram(pkgs), analyzers)
}

// RunProgram is Run over an explicit Program (lets callers build the
// program once and also dump its call graph).
func RunProgram(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Prog:     prog,
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
