package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The call graph is the interprocedural backbone of the v2 analyzers:
// obspurity and hotpropagate both reason about what is reachable from
// a set of entry points. The graph is built once per Program from the
// loaded ASTs — stdlib-only, no SSA:
// nodes are named functions (including methods) and function literals,
// and edges come in four kinds:
//
//   - EdgeDirect: a static call to a named function or a method on a
//     concrete receiver type.
//   - EdgeClosure: a function literal appearing syntactically inside a
//     function body. The literal may run later (scheduled via sim.After,
//     stored in a struct), so containment is treated as a may-call edge.
//   - EdgeRef: a function or method referenced as a value (a method
//     value like h.handle, a function passed as a callback). The
//     reference site may invoke it arbitrarily later.
//   - EdgeIface: a call through an interface method. The graph
//     over-approximates conservatively: one edge to the interface
//     method itself plus one edge to every concrete method in the
//     loaded packages whose type implements the interface.
//
// Only packages loaded as targets contribute bodies; calls into
// dependency-only packages (stdlib, export-data-only deps) produce
// body-less nodes where traversals simply stop.

// EdgeKind classifies one call-graph edge.
type EdgeKind uint8

const (
	EdgeDirect EdgeKind = iota
	EdgeClosure
	EdgeRef
	EdgeIface
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeDirect:
		return "direct"
	case EdgeClosure:
		return "closure"
	case EdgeRef:
		return "ref"
	case EdgeIface:
		return "iface"
	}
	return "?"
}

// EdgeKindMask selects edge kinds for a traversal.
type EdgeKindMask uint8

// Mask returns the single-kind mask for k.
func (k EdgeKind) Mask() EdgeKindMask { return 1 << k }

// AllEdges traverses every edge kind.
const AllEdges EdgeKindMask = 1<<EdgeDirect | 1<<EdgeClosure | 1<<EdgeRef | 1<<EdgeIface

// FuncNode is one function in the call graph: a named function/method
// (Obj set) or a function literal (Lit set). Pkg and Decl are non-nil
// only when the body was loaded as a target package.
type FuncNode struct {
	Obj  *types.Func   // nil for literals
	Lit  *ast.FuncLit  // nil for named functions
	Pkg  *Package      // package holding the body; nil for external functions
	Decl *ast.FuncDecl // declaration, when the body is loaded

	out []*Edge
}

// Body returns the function's body block, or nil when it is external.
func (n *FuncNode) Body() *ast.BlockStmt {
	switch {
	case n.Lit != nil:
		return n.Lit.Body
	case n.Decl != nil:
		return n.Decl.Body
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	switch {
	case n.Lit != nil:
		return n.Lit.Pos()
	case n.Decl != nil:
		return n.Decl.Pos()
	case n.Obj != nil:
		return n.Obj.Pos()
	}
	return token.NoPos
}

// Name returns a stable human-readable name: pkgpath.Func,
// pkgpath.(Recv).Method, or pkgpath.parent.func@line for literals.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		recv := n.Obj.Type().(*types.Signature).Recv()
		pkg := ""
		if n.Obj.Pkg() != nil {
			pkg = n.Obj.Pkg().Path() + "."
		}
		if recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return fmt.Sprintf("%s(%s).%s", pkg, named.Obj().Name(), n.Obj.Name())
			}
		}
		return pkg + n.Obj.Name()
	}
	if n.Lit != nil && n.Pkg != nil {
		pos := n.Pkg.Fset.Position(n.Lit.Pos())
		return fmt.Sprintf("%s.func@line%d", n.Pkg.ImportPath, pos.Line)
	}
	return "func@?"
}

// Out returns the node's outgoing edges in source order.
func (n *FuncNode) Out() []*Edge { return n.out }

// Edge is one may-call relation, anchored at the call/reference site.
type Edge struct {
	From, To *FuncNode
	Kind     EdgeKind
	Pos      token.Pos
}

// Graph is the whole-program call graph over the loaded packages.
type Graph struct {
	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	nodes []*FuncNode // declaration order across packages

	// implCache memoizes interface-method -> concrete implementations.
	implCache map[*types.Func][]*types.Func
	// named is every named (non-interface) type of the loaded packages,
	// in deterministic (package, name) order, for implementation search.
	named []*types.Named
}

// Nodes returns every node in declaration order.
func (g *Graph) Nodes() []*FuncNode { return g.nodes }

// NodeOf returns the node for a named function, or nil. Generic
// instantiations are folded onto their origin.
func (g *Graph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.byObj[fn.Origin()]
}

// NodeOfLit returns the node for a function literal, or nil.
func (g *Graph) NodeOfLit(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// BuildGraph constructs the call graph for the loaded packages.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		byObj:     map[*types.Func]*FuncNode{},
		byLit:     map[*ast.FuncLit]*FuncNode{},
		implCache: map[*types.Func][]*types.Func{},
	}
	g.collectNamedTypes(pkgs)
	// First pass: a node per declared function, so cross-package direct
	// edges resolve to the declaring node regardless of build order.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: fn, Pkg: pkg, Decl: fd}
				g.byObj[fn] = node
				g.nodes = append(g.nodes, node)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if from := g.byObj[pkg.Info.Defs[fd.Name].(*types.Func)]; from != nil {
						g.walkBody(pkg, from, fd.Body)
					}
				}
			}
		}
	}
	return g
}

// collectNamedTypes gathers the concrete named types of the loaded
// packages in deterministic order for interface-implementation search.
func (g *Graph) collectNamedTypes(pkgs []*Package) {
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.named = append(g.named, named)
		}
	}
}

// walkBody records edges for one function body, descending into nested
// literals with the literal as the new source.
func (g *Graph) walkBody(pkg *Package, from *FuncNode, body *ast.BlockStmt) {
	// callFuns marks expressions appearing in call position, so the ref
	// pass below does not double-count a direct call as a reference.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[call.Fun] = true
			if p, ok := call.Fun.(*ast.ParenExpr); ok {
				callFuns[p.X] = true
			}
		}
		return true
	})
	var walk func(n ast.Node, from *FuncNode)
	walk = func(n ast.Node, from *FuncNode) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				lit := g.litNode(pkg, n)
				g.addEdge(from, lit, EdgeClosure, n.Pos())
				walk(n.Body, lit)
				return false
			case *ast.CallExpr:
				g.callEdges(pkg, from, n)
			case *ast.Ident:
				if !callFuns[n] {
					g.refEdge(pkg, from, n, n)
				}
			case *ast.SelectorExpr:
				if !callFuns[n] {
					g.refEdge(pkg, from, n.Sel, n)
				}
				// Do not descend past the selector: n.Sel would be
				// revisited as a bare Ident and double-count the call
				// or reference.
				walk(n.X, from)
				return false
			}
			return true
		})
	}
	walk(body, from)
}

// litNode returns (creating on first use) the node for a literal.
func (g *Graph) litNode(pkg *Package, lit *ast.FuncLit) *FuncNode {
	if n, ok := g.byLit[lit]; ok {
		return n
	}
	n := &FuncNode{Lit: lit, Pkg: pkg}
	g.byLit[lit] = n
	g.nodes = append(g.nodes, n)
	return n
}

// extNode returns (creating on first use) the node for a function whose
// body is not loaded (dependency-only packages, interface methods).
func (g *Graph) extNode(fn *types.Func) *FuncNode {
	fn = fn.Origin()
	if n, ok := g.byObj[fn]; ok {
		return n
	}
	n := &FuncNode{Obj: fn}
	g.byObj[fn] = n
	g.nodes = append(g.nodes, n)
	return n
}

func (g *Graph) addEdge(from, to *FuncNode, kind EdgeKind, pos token.Pos) {
	if from == nil || to == nil {
		return
	}
	from.out = append(from.out, &Edge{From: from, To: to, Kind: kind, Pos: pos})
}

// callEdges resolves one call expression to its callee edges.
func (g *Graph) callEdges(pkg *Package, from *FuncNode, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			g.addEdge(from, g.extNode(fn), EdgeDirect, call.Pos())
		}
	case *ast.FuncLit:
		g.addEdge(from, g.litNode(pkg, fun), EdgeDirect, call.Pos())
	case *ast.SelectorExpr:
		sel, isSel := pkg.Info.Selections[fun]
		fn, isFn := pkg.Info.Uses[fun.Sel].(*types.Func)
		if !isFn {
			return
		}
		if isSel && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if types.IsInterface(recv) {
				g.ifaceEdges(from, fn, call.Pos())
				return
			}
		}
		g.addEdge(from, g.extNode(fn), EdgeDirect, call.Pos())
	}
}

// refEdge records a function referenced as a value (method value, func
// passed as callback, method expression).
func (g *Graph) refEdge(pkg *Package, from *FuncNode, id *ast.Ident, site ast.Expr) {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	// A reference to an interface method (method value on an interface)
	// fans out like a dispatch site.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			g.ifaceEdges(from, fn, site.Pos())
			return
		}
	}
	g.addEdge(from, g.extNode(fn), EdgeRef, site.Pos())
}

// ifaceEdges adds the conservative dispatch edges for a call through
// interface method m: the abstract method plus every concrete method of
// a loaded named type implementing the interface.
func (g *Graph) ifaceEdges(from *FuncNode, m *types.Func, pos token.Pos) {
	g.addEdge(from, g.extNode(m), EdgeIface, pos)
	for _, impl := range g.implementations(m) {
		g.addEdge(from, g.extNode(impl), EdgeIface, pos)
	}
}

// implementations returns the concrete methods satisfying interface
// method m among the loaded named types, memoized per method.
func (g *Graph) implementations(m *types.Func) []*types.Func {
	m = m.Origin()
	if impls, ok := g.implCache[m]; ok {
		return impls
	}
	var impls []*types.Func
	recv := m.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if ok {
		for _, named := range g.named {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				impls = append(impls, fn)
			}
		}
	}
	g.implCache[m] = impls
	return impls
}

// ReachSet is the result of a reachability traversal: membership plus
// the BFS parent edge of every reached node, for chain reconstruction.
type ReachSet struct {
	parent map[*FuncNode]*Edge // nil parent: a root
	member map[*FuncNode]bool
}

// Has reports whether n was reached.
func (r *ReachSet) Has(n *FuncNode) bool { return n != nil && r.member[n] }

// Chain returns the edges of a shortest root-to-n path, root side first.
// A root returns an empty chain.
func (r *ReachSet) Chain(n *FuncNode) []*Edge {
	var chain []*Edge
	for e := r.parent[n]; e != nil; e = r.parent[e.From] {
		chain = append(chain, e)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// ChainString renders a chain as "a → b → c" ending at n.
func (r *ReachSet) ChainString(n *FuncNode) string {
	chain := r.Chain(n)
	if len(chain) == 0 {
		return n.Name()
	}
	parts := make([]string, 0, len(chain)+1)
	parts = append(parts, chain[0].From.Name())
	for _, e := range chain {
		parts = append(parts, e.To.Name())
	}
	return strings.Join(parts, " -> ")
}

// Reach runs a deterministic BFS from roots over the selected edge
// kinds. stop, when non-nil, prunes a node: it is still reached, but
// its outgoing edges are not followed.
func (g *Graph) Reach(roots []*FuncNode, kinds EdgeKindMask, stop func(*FuncNode) bool) *ReachSet {
	r := &ReachSet{parent: map[*FuncNode]*Edge{}, member: map[*FuncNode]bool{}}
	var queue []*FuncNode
	for _, n := range roots {
		if n == nil || r.member[n] {
			continue
		}
		r.member[n] = true
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if stop != nil && stop(n) {
			continue
		}
		for _, e := range n.out {
			if kinds&e.Kind.Mask() == 0 || r.member[e.To] {
				continue
			}
			r.member[e.To] = true
			r.parent[e.To] = e
			queue = append(queue, e.To)
		}
	}
	return r
}

// DumpLines renders every edge as "caller -> callee [kind] @ file:line",
// sorted, for the emxvet -graph debug dump.
func (g *Graph) DumpLines(fset *token.FileSet) []string {
	var lines []string
	for _, n := range g.nodes {
		for _, e := range n.out {
			pos := ""
			if fset != nil && e.Pos.IsValid() {
				p := fset.Position(e.Pos)
				pos = fmt.Sprintf(" @ %s:%d", p.Filename, p.Line)
			}
			lines = append(lines, fmt.Sprintf("%s -> %s [%s]%s", e.From.Name(), e.To.Name(), e.Kind, pos))
		}
	}
	sort.Strings(lines)
	return lines
}
