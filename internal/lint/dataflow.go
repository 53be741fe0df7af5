package lint

import (
	"go/ast"
	"go/types"
)

// A small forward dataflow/taint engine. Analyzers label expressions at
// source sites (a method receiver, a host-clock read) and the engine
// propagates the labels forward through a function body:
// assignments, short variable declarations, range statements, and
// address/dereference chains. Calls transfer labels through the
// analyzer's own call hook.
//
// The lattice is a set of string labels per variable; the transfer
// function is monotone (labels are only added), so the local fixpoint
// terminates in at most |labels|·|vars| passes and in practice in two.

// Labels is a set of taint labels.
type Labels map[string]bool

func (l Labels) add(other Labels) bool {
	changed := false
	for k := range other {
		if !l[k] {
			l[k] = true
			changed = true
		}
	}
	return changed
}

// Taint is the per-function forward analysis state.
type Taint struct {
	pkg *Package
	// source classifies an expression as a taint source, returning its
	// labels (nil: not a source).
	source func(expr ast.Expr) Labels
	// call, when non-nil, transfers labels through a call expression
	// given the already-computed labels of each argument (nil: calls
	// never produce tainted results).
	call func(call *ast.CallExpr, argLabels []Labels) Labels

	vars map[types.Object]Labels
}

// NewTaint prepares a forward taint analysis over one function body.
func NewTaint(pkg *Package, source func(ast.Expr) Labels, call func(*ast.CallExpr, []Labels) Labels) *Taint {
	return &Taint{pkg: pkg, source: source, call: call, vars: map[types.Object]Labels{}}
}

// Run propagates labels through body to a local fixpoint.
func (t *Taint) Run(body *ast.BlockStmt) {
	for {
		if !t.pass(body) {
			return
		}
	}
}

// pass performs one forward sweep, returning whether any variable
// gained a label.
func (t *Taint) pass(body *ast.BlockStmt) bool {
	changed := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // literals are separate functions
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if t.bind(n.Lhs[i], t.Of(n.Rhs[i])) {
						changed = true
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					if t.bindIdent(name, t.Of(n.Values[i])) {
						changed = true
					}
				}
			}
		case *ast.RangeStmt:
			// Ranging over a tainted collection taints the element.
			if n.Value != nil {
				if t.bind(n.Value, t.Of(n.X)) {
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// bind merges labels into the variable the LHS expression names.
func (t *Taint) bind(lhs ast.Expr, labels Labels) bool {
	if len(labels) == 0 {
		return false
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return t.bindIdent(id, labels)
	}
	return false
}

func (t *Taint) bindIdent(id *ast.Ident, labels Labels) bool {
	if len(labels) == 0 || id.Name == "_" {
		return false
	}
	obj := t.pkg.Info.Defs[id]
	if obj == nil {
		obj = t.pkg.Info.Uses[id]
	}
	if obj == nil {
		return false
	}
	cur, ok := t.vars[obj]
	if !ok {
		cur = Labels{}
		t.vars[obj] = cur
	}
	return cur.add(labels)
}

// Bind seeds labels onto a variable directly (parameters at analysis
// entry).
func (t *Taint) Bind(obj types.Object, labels Labels) {
	if obj == nil || len(labels) == 0 {
		return
	}
	cur, ok := t.vars[obj]
	if !ok {
		cur = Labels{}
		t.vars[obj] = cur
	}
	cur.add(labels)
}

// Of computes the labels of an expression under the current state.
func (t *Taint) Of(expr ast.Expr) Labels {
	out := Labels{}
	t.of(expr, out)
	return out
}

func (t *Taint) of(expr ast.Expr, out Labels) {
	if expr == nil {
		return
	}
	if src := t.source(expr); len(src) > 0 {
		out.add(src)
	}
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := t.pkg.Info.Uses[e]; obj != nil {
			out.add(t.vars[obj])
		} else if obj := t.pkg.Info.Defs[e]; obj != nil {
			out.add(t.vars[obj])
		}
	case *ast.ParenExpr:
		t.of(e.X, out)
	case *ast.UnaryExpr:
		t.of(e.X, out) // &x carries x's labels
	case *ast.StarExpr:
		t.of(e.X, out) // *p carries p's labels
	case *ast.TypeAssertExpr:
		t.of(e.X, out)
	case *ast.CallExpr:
		if t.call != nil {
			argLabels := make([]Labels, len(e.Args))
			for i, a := range e.Args {
				argLabels[i] = t.Of(a)
			}
			out.add(t.call(e, argLabels))
		} else if tv, ok := t.pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			t.of(e.Args[0], out) // conversions preserve labels
		}
	}
}

// VarLabels returns the accumulated labels of a variable.
func (t *Taint) VarLabels(obj types.Object) Labels { return t.vars[obj] }

// StaticCallee resolves a call to its named callee, or nil for
// indirect/builtin/interface calls.
func StaticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
