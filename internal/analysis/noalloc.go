package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc enforces the repo's 0-allocs/op steady-state contract: a
// function annotated //s2c2:noalloc — and every same-module function it
// statically calls — must not contain allocation-inducing constructs.
//
// Flagged constructs: make, new, append (growth), map/slice composite
// literals and &T{} literals, closures (func literals), go statements,
// string concatenation and string<->[]byte/[]rune conversions, interface
// boxing of non-pointer values at call sites and conversions, and calls
// into fmt, log, errors.New and errors.Join.
//
// Two escape hatches keep guarded slow paths honest:
//
//   - A construct inside the error result of a return statement that
//     actually carries an error is exempt: allocation on a failing exit
//     is not the steady state the contract covers. Panic arguments are
//     exempt for the same reason.
//   - //s2c2:noalloc-waive on a line (or a whole function's doc comment)
//     waives findings there; every waive is an auditable in-source record.
//
// Explicit instantiations (f[T](…)) are followed like any named call, and
// a method called on a type-parameter receiver is followed into that
// method of every type argument the parameter is instantiated with
// anywhere in the load. Calls the walk cannot resolve statically —
// interface methods, function values, the kernel backend's struct function
// fields — are not followed; the AllocsPerRun tests remain the runtime
// backstop behind those seams.
var NoAlloc = &Analyzer{
	Name:      "noalloc",
	Doc:       "flag allocation-inducing constructs reachable from //s2c2:noalloc functions",
	RunModule: runNoAllocModule,
	Run:       runNoAllocUnit,
}

// runNoAllocModule is the full cross-package walk (standalone s2c2-vet,
// the authority in CI).
func runNoAllocModule(pass *ModulePass) {
	noallocOver(pass.Fset, pass.Pkgs, pass.Reportf)
}

// runNoAllocUnit is the single-package variant for go vet -vettool mode,
// where other packages' bodies are unavailable: the walk stops at the
// package boundary. The driver runs exactly one of the two forms.
func runNoAllocUnit(pass *Pass) {
	noallocOver(pass.Fset, []*Package{pass.Pkg}, pass.Reportf)
}

func noallocOver(fset *token.FileSet, pkgs []*Package, report func(pos token.Pos, format string, args ...any)) {
	na := &noallocWalk{
		idx:     buildIndex(pkgs),
		fset:    fset,
		waives:  collectWaives(fset, pkgs),
		report:  report,
		visited: make(map[*ast.FuncDecl]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !funcAnnotated(fn, "noalloc") {
					continue
				}
				na.visit(fn, pkg, funcName(fn, pkg))
			}
		}
	}
}

// noallocWalk carries the DFS over annotated roots and their callees. A
// function's constructs are flagged once even when several roots reach it.
type noallocWalk struct {
	idx     *moduleIndex
	fset    *token.FileSet
	waives  waiveSet
	report  func(pos token.Pos, format string, args ...any)
	visited map[*ast.FuncDecl]bool
}

func (na *noallocWalk) visit(fn *ast.FuncDecl, pkg *Package, root string) {
	if na.visited[fn] || fn.Body == nil {
		return
	}
	na.visited[fn] = true
	if funcAnnotated(fn, "noalloc-waive") {
		return // explicitly waived slow path: neither checked nor walked
	}
	info := pkg.Info
	name := funcName(fn, pkg)
	ctx := ""
	if name != root {
		ctx = fmt.Sprintf(" (in %s, reached from //s2c2:noalloc %s)", name, root)
	}

	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		flag := func(pos token.Pos, format string, args ...any) {
			if !onFailureExit(info, pos, stack) {
				na.report(pos, format, args...)
			}
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			na.checkCall(n, info, root, ctx, flag)
		case *ast.CompositeLit:
			na.checkCompositeLit(n, info, stack, ctx, flag)
		case *ast.FuncLit:
			flag(n.Pos(), "closure allocates%s", ctx)
		case *ast.GoStmt:
			flag(n.Pos(), "go statement allocates a goroutine%s", ctx)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.Types[n.X].Type) {
				flag(n.Pos(), "string concatenation allocates%s", ctx)
			}
		}
		return true
	})
}

// checkCall flags builtin allocators, allocating stdlib calls, allocating
// conversions and interface boxing, then recurses into same-module
// callees.
func (na *noallocWalk) checkCall(call *ast.CallExpr, info *types.Info, root, ctx string,
	flag func(pos token.Pos, format string, args ...any)) {

	// A line waive covers the call's transitive behavior too: neither
	// flag the call nor walk into its callee from a waived site (the
	// callee's own //s2c2:noalloc roots, if any, still cover it).
	if na.waives.waivedAt(na.fset.Position(call.Pos()), "noalloc") {
		return
	}

	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				flag(call.Pos(), "make allocates%s", ctx)
			case "new":
				flag(call.Pos(), "new allocates%s", ctx)
			case "append":
				flag(call.Pos(), "append may grow its backing array%s", ctx)
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		na.checkConversion(call, tv.Type, info, ctx, flag)
		return
	}

	// Allocating stdlib calls, then interface boxing of the arguments.
	callee := staticCallee(info, call)
	if callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "fmt", "log":
			flag(call.Pos(), "%s.%s allocates%s", callee.Pkg().Name(), callee.Name(), ctx)
			return
		case "errors":
			if callee.Name() == "New" || callee.Name() == "Join" {
				flag(call.Pos(), "errors.%s allocates%s", callee.Name(), ctx)
				return
			}
		}
	}
	if sig, ok := info.Types[call.Fun].Type.(*types.Signature); ok {
		na.checkBoxing(call, sig, info, ctx, flag)
	}

	// Same-module recursion; a method called on a type parameter recurses
	// into that method of every type argument the parameter takes.
	callees := []*types.Func{callee}
	if callee == nil {
		callees = na.idx.typeParamCallees(info, call)
	}
	for _, fn := range callees {
		if decl, pkg := na.idx.lookup(fn); decl != nil {
			na.visit(decl, pkg, root)
		}
	}
}

// checkConversion flags string<->[]byte/[]rune conversions and interface
// boxing conversions.
func (na *noallocWalk) checkConversion(call *ast.CallExpr, to types.Type, info *types.Info, ctx string,
	flag func(pos token.Pos, format string, args ...any)) {

	if len(call.Args) != 1 {
		return
	}
	from := info.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	switch {
	case isString(to) && isByteOrRuneSlice(from), isByteOrRuneSlice(to) && isString(from):
		flag(call.Pos(), "string conversion copies and allocates%s", ctx)
	case types.IsInterface(to) && !types.IsInterface(from) && boxingAllocates(from):
		flag(call.Pos(), "conversion boxes %s into an interface%s", from, ctx)
	}
}

// checkBoxing flags arguments whose assignment to an interface-typed
// parameter heap-boxes a non-pointer value.
func (na *noallocWalk) checkBoxing(call *ast.CallExpr, sig *types.Signature, info *types.Info, ctx string,
	flag func(pos token.Pos, format string, args ...any)) {

	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.Types[arg].Type
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		if boxingAllocates(at) {
			flag(arg.Pos(), "argument boxes %s into %s%s", at, pt, ctx)
		}
	}
}

// checkCompositeLit flags literals whose storage lands on the heap: map
// and slice literals, and struct literals whose address is taken.
func (na *noallocWalk) checkCompositeLit(lit *ast.CompositeLit, info *types.Info, stack []ast.Node, ctx string,
	flag func(pos token.Pos, format string, args ...any)) {

	t := info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		flag(lit.Pos(), "map literal allocates%s", ctx)
	case *types.Slice:
		flag(lit.Pos(), "slice literal allocates%s", ctx)
	default:
		if len(stack) > 0 {
			if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
				flag(u.Pos(), "&composite literal escapes to the heap%s", ctx)
			}
		}
	}
}

// onFailureExit reports whether pos lies inside the error result of an
// enclosing return statement that carries a non-nil error, or inside a
// panic argument — the guarded failure exits the steady-state contract
// does not cover.
func onFailureExit(info *types.Info, pos token.Pos, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				continue
			}
			last := n.Results[len(n.Results)-1]
			if last.Pos() <= pos && pos < last.End() &&
				isErrorType(info.Types[last].Type) && !isNilIdent(info, last) {
				// A bare tail call (`return w.flush()`) is steady-state,
				// not a failure exit: exempt only composite error
				// construction, where the construct is nested below the
				// result expression itself.
				if pos != last.Pos() || isErrorConstruction(info, last) {
					return true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}

// isErrorConstruction reports whether e builds a fresh error value (the
// fmt.Errorf / errors.New / errors.Join / &SomeError{} family) rather
// than propagating one.
func isErrorConstruction(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		return e.Op == token.AND
	case *ast.CallExpr:
		callee := staticCallee(info, e)
		if callee == nil || callee.Pkg() == nil {
			return false
		}
		switch callee.Pkg().Path() {
		case "fmt", "errors":
			return true
		}
	}
	return false
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxingAllocates reports whether storing a value of concrete type t in
// an interface heap-allocates: pointer-shaped values (pointers, channels,
// maps, funcs, unsafe pointers) fit the interface word directly.
func boxingAllocates(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}
