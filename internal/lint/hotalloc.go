package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc enforces the 0 allocs/op property of functions marked
// //emx:hotpath — the calendar-queue ring/heap operations, handler
// dispatch, and the EXU's thread-operation handling. bench_test.go can
// only measure the property on the inputs it runs; this analyzer
// enforces it structurally on every path:
//
//   - no closure literals (a closure that captures anything heap-escapes)
//   - no boxing of non-pointer values into interfaces (constants and
//     pointer-shaped values are free; everything else allocates)
//   - no append to a slice that was not preallocated with an explicit
//     capacity in the same function (appends to struct fields and
//     parameters are assumed to be reused buffers)
//
// Cold error/diagnostic lines inside a hot function are exempted with
// //emx:coldpath. A //emx:hotpath not attached to a function and a
// //emx:coldpath that suppressed nothing are findings too.
//
// The check is per function: a marked function's unmarked callees are
// not checked. Helpers that run per event carry their own
// //emx:hotpath, and testing.AllocsPerRun tests in core and sim catch
// an allocation laundered through an unmarked one.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid closures, interface boxing, and unpreallocated appends in //emx:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	pkg := pass.Pkg
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hotPathMarked(pkg, fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	for _, d := range pkg.Directives.Unused(DirHotPath) {
		pass.Reportf(d.Pos, "unused //emx:hotpath directive: not attached to a function declaration")
	}
	for _, d := range pkg.Directives.Unused(DirColdPath) {
		pass.Reportf(d.Pos, "unused //emx:coldpath directive: no hot-path finding suppressed on line %d", d.EffectiveLine)
	}
}

// hotPathMarked reports whether fd carries //emx:hotpath, either in
// its doc comment or on the line above the declaration.
func hotPathMarked(pkg *Package, fd *ast.FuncDecl) bool {
	for _, d := range pkg.Directives.All() {
		if d.Name != DirHotPath || d.Malformed {
			continue
		}
		inDoc := fd.Doc != nil && d.Pos >= fd.Doc.Pos() && d.Pos < fd.Doc.End()
		file, line := nodeLine(pkg, fd)
		onLine := d.File == file && d.EffectiveLine == line
		if inDoc || onLine {
			pkg.Directives.Use(d)
			return true
		}
	}
	return false
}

// cold reports whether the node's line carries //emx:coldpath.
func cold(pkg *Package, n ast.Node) bool {
	return suppressedBy(pkg, n, DirColdPath)
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	pkg := pass.Pkg
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !cold(pkg, n) {
				pass.Reportf(n.Pos(), "closure literal in hot-path function %s allocates", fd.Name.Name)
			}
			return false // the closure body is its own (cold) world
		case *ast.CallExpr:
			checkCall(pass, fd, n)
		case *ast.AssignStmt:
			checkAssign(pass, fd, n)
		case *ast.CompositeLit:
			checkCompositeLit(pass, fd, n)
		case *ast.ReturnStmt:
			checkReturn(pass, fd, n)
		case *ast.SendStmt:
			tgt := pkg.Info.TypeOf(n.Chan)
			if ch, ok := tgt.Underlying().(*types.Chan); ok {
				reportIfBoxed(pass, fd, n.Value, ch.Elem())
			}
		}
		return true
	})
}

// checkCall reports boxing through call arguments and unpreallocated
// appends.
func checkCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	pkg := pass.Pkg
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	switch {
	case tv.IsBuiltin():
		name := builtinName(call.Fun)
		switch name {
		case "append":
			checkAppend(pass, fd, call)
		case "panic":
			if len(call.Args) == 1 {
				reportIfBoxed(pass, fd, call.Args[0], types.NewInterfaceType(nil, nil))
			}
		}
	case tv.IsType():
		// Conversion T(x): boxing only when T is an interface.
		if len(call.Args) == 1 && types.IsInterface(tv.Type) {
			reportIfBoxed(pass, fd, call.Args[0], tv.Type)
		}
	default:
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if call.Ellipsis.IsValid() {
					pt = params.At(params.Len() - 1).Type()
				} else {
					pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt != nil {
				reportIfBoxed(pass, fd, arg, pt)
			}
		}
	}
}

func builtinName(fun ast.Expr) string {
	if id, ok := fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func checkAssign(pass *Pass, fd *ast.FuncDecl, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value RHS: assignability is call-site driven
	}
	for i := range as.Lhs {
		lt := pass.Pkg.Info.TypeOf(as.Lhs[i])
		if lt != nil {
			reportIfBoxed(pass, fd, as.Rhs[i], lt)
		}
	}
}

func checkCompositeLit(pass *Pass, fd *ast.FuncDecl, cl *ast.CompositeLit) {
	pkg := pass.Pkg
	t := pkg.Info.TypeOf(cl)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				id, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				for j := 0; j < u.NumFields(); j++ {
					if u.Field(j).Name() == id.Name {
						reportIfBoxed(pass, fd, kv.Value, u.Field(j).Type())
						break
					}
				}
			} else if i < u.NumFields() {
				reportIfBoxed(pass, fd, el, u.Field(i).Type())
			}
		}
	case *types.Slice:
		for _, el := range cl.Elts {
			reportIfBoxed(pass, fd, valueExpr(el), u.Elem())
		}
	case *types.Array:
		for _, el := range cl.Elts {
			reportIfBoxed(pass, fd, valueExpr(el), u.Elem())
		}
	case *types.Map:
		for _, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				reportIfBoxed(pass, fd, kv.Key, u.Key())
				reportIfBoxed(pass, fd, kv.Value, u.Elem())
			}
		}
	}
}

func valueExpr(el ast.Expr) ast.Expr {
	if kv, ok := el.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return el
}

func checkReturn(pass *Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	results := fd.Type.Results
	if results == nil {
		return
	}
	var rts []types.Type
	for _, fld := range results.List {
		t := pass.Pkg.Info.TypeOf(fld.Type)
		n := len(fld.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			rts = append(rts, t)
		}
	}
	if len(ret.Results) != len(rts) {
		return
	}
	for i, r := range ret.Results {
		reportIfBoxed(pass, fd, r, rts[i])
	}
}

// reportIfBoxed reports expr when assigning it to target boxes a
// non-pointer value into an interface. Constants are free (the
// compiler backs them with static data), as are pointer-shaped values
// (pointers, channels, maps, funcs, unsafe.Pointer).
func reportIfBoxed(pass *Pass, fd *ast.FuncDecl, expr ast.Expr, target types.Type) {
	pkg := pass.Pkg
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil {
		return // untyped or constant: no allocation
	}
	src := tv.Type
	if types.IsInterface(src) || isPointerShaped(src) {
		return
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if cold(pkg, expr) {
		return
	}
	pass.Reportf(expr.Pos(),
		"value of type %s is boxed into an interface in hot-path function %s (wrap it in a pointer or move it off the hot path)",
		src.String(), fd.Name.Name)
}

func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// checkAppend flags append whose destination is a local slice that was
// not created with an explicit capacity in this function. Fields,
// parameters, and slices of unknown provenance are assumed to be
// reused, preallocated buffers (the engine's bucket/heap pattern).
func checkAppend(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	pkg := pass.Pkg
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // field or indexed destination: reused buffer pattern
	}
	obj, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	init, isLocal := localVarInit(pkg, fd, obj)
	if !isLocal {
		return // parameter or package-level: caller's responsibility
	}
	if preallocated(pkg, init) {
		return
	}
	if cold(pkg, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"append to slice %s not preallocated with make(..., cap) in hot-path function %s",
		id.Name, fd.Name.Name)
}

// localVarInit finds the declaration of obj inside fd and returns its
// initializer expression (nil when declared without one). The second
// result is false when obj is not declared in fd's body (it is a
// parameter, receiver, or package-level variable).
func localVarInit(pkg *Package, fd *ast.FuncDecl, obj types.Object) (ast.Expr, bool) {
	var init ast.Expr
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pkg.Info.Defs[id] != obj {
					continue
				}
				found = true
				if len(n.Rhs) == len(n.Lhs) {
					init = n.Rhs[i]
				}
				return false
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pkg.Info.Defs[name] != obj {
					continue
				}
				found = true
				if i < len(n.Values) {
					init = n.Values[i]
				}
				return false
			}
		}
		return true
	})
	return init, found
}

// preallocated reports whether init guarantees capacity: a make with
// an explicit size or capacity, or an expression the analyzer cannot
// see through (conservatively trusted).
func preallocated(pkg *Package, init ast.Expr) bool {
	switch init := init.(type) {
	case nil:
		return false // var x []T
	case *ast.CallExpr:
		if builtinName(init.Fun) == "make" {
			if tv, ok := pkg.Info.Types[init.Fun]; ok && tv.IsBuiltin() {
				if len(init.Args) >= 3 {
					return true // make([]T, n, c)
				}
				if len(init.Args) == 2 {
					// make([]T, n): capacity n; preallocated unless the
					// length is the constant 0.
					tv, ok := pkg.Info.Types[init.Args[1]]
					if ok && tv.Value != nil && tv.Value.String() == "0" {
						return false
					}
					return true
				}
				return false
			}
		}
		return true // result of another call: trusted
	case *ast.CompositeLit:
		return false // []T{...}: capacity == length, append reallocates
	case *ast.Ident:
		return init.Name != "nil"
	}
	return true
}
