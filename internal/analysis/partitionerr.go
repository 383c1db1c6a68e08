package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PartitionErr enforces the failure-attribution contract of the
// distribute/stream paths.
//
// Rule 1 — attribution: inside a function annotated
// //s2c2:partition-attrib, a returned error must carry attribution. A
// fresh, unwrapped error — errors.New(...), or fmt.Errorf whose format
// has no %w verb — erases which worker/partition failed, which is
// exactly what PartitionError exists to preserve. Wrapping constructs
// (fmt.Errorf with %w, errors.Join, &PartitionError{...}, or
// propagating an existing error value) all pass.
//
// Rule 2 — context plumbing: a function that takes a context.Context
// must not call anything with context.Background() or context.TODO() as
// an argument. Minting a fresh root context below an entry point detaches
// the call from the caller's deadline and cancellation; the straggler
// cutoff stops propagating. Root entry points without a ctx parameter
// (a program's main, a test) are free to mint one.
//
// Rule 3 — retry loops must not swallow the loop's error: inside a
// //s2c2:partition-attrib function, an error variable declared outside a
// for-loop and assigned within it is the retry path's attribution
// carrier (`var last error; for ... { last = ship(...) }`). If nothing
// ever consults it once the loop is done — no read after the loop, no
// return of it from inside the loop, no bare return naming it as a
// result — then backoff exhaustion discards the last attempt's
// *PartitionError and the caller learns nothing about which worker
// failed. The loop must return the variable, wrap it (%w), or join it
// into the exhaustion error.
var PartitionErr = &Analyzer{
	Name: "partitionerr",
	Doc:  "distribute/stream errors must stay attributed; ctx must be propagated, not re-minted",
	Run:  runPartitionErr,
}

func runPartitionErr(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if funcAnnotated(fn, "partition-attrib") {
				checkAttribution(pass, fn)
				checkRetrySwallow(pass, fn)
			}
			checkCtxPropagation(pass, fn)
		}
	}
}

// checkAttribution flags fresh unattributed errors returned from a
// //s2c2:partition-attrib function.
func checkAttribution(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if !isErrorType(info.Types[res].Type) {
				continue
			}
			if msg := freshUnattributedError(info, res); msg != "" {
				pass.Reportf(res.Pos(), "%s returns an unattributed error (%s); wrap the failing partition via %%w or *PartitionError", fn.Name.Name, msg)
			}
		}
		return true
	})
}

// checkRetrySwallow flags error variables that a loop assigns but the
// function then abandons (rule 3).
func checkRetrySwallow(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		for obj, firstAssign := range loopErrorCarriers(info, n.Pos(), body) {
			if !errorCarrierConsulted(info, fn, obj, body) {
				pass.Reportf(firstAssign, "retry loop assigns %s but nothing consults it after the loop; return, wrap (%%w), or join it so exhaustion keeps the last attempt's attribution", obj.Name())
			}
		}
		return true
	})
}

// loopErrorCarriers collects error-typed variables declared before the
// loop (position-wise) and plain-assigned inside its body, keyed to the
// first assignment's position. Loop-local `err :=` declarations are the
// per-iteration early-return idiom and are not carriers.
func loopErrorCarriers(info *types.Info, loopPos token.Pos, body *ast.BlockStmt) map[types.Object]token.Pos {
	var carriers map[types.Object]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || asg.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range asg.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pos() >= loopPos || !isErrorType(obj.Type()) {
				continue
			}
			if _, seen := carriers[obj]; !seen {
				if carriers == nil {
					carriers = make(map[types.Object]token.Pos)
				}
				carriers[obj] = id.Pos()
			}
		}
		return true
	})
	return carriers
}

// errorCarrierConsulted reports whether the loop-assigned error obj is
// preserved: read anywhere after the loop ends, referenced inside a
// return statement within the loop, or implicitly returned by a bare
// return when obj is a named result of fn.
func errorCarrierConsulted(info *types.Info, fn *ast.FuncDecl, obj types.Object, body *ast.BlockStmt) bool {
	consulted := false
	bareReturnMatters := isNamedResult(info, fn, obj)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if consulted {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if info.Uses[n] == obj && n.Pos() > body.End() {
				consulted = true
			}
		case *ast.ReturnStmt:
			if len(n.Results) == 0 && bareReturnMatters {
				consulted = true
				return false
			}
			// A return inside the loop that mentions the carrier (return
			// err, return fmt.Errorf("...: %w", err)) preserves it.
			if n.Pos() > body.Pos() && n.End() < body.End() {
				for _, res := range n.Results {
					ast.Inspect(res, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
							consulted = true
						}
						return !consulted
					})
				}
			}
		}
		return !consulted
	})
	return consulted
}

// isNamedResult reports whether obj is one of fn's named result
// parameters.
func isNamedResult(info *types.Info, fn *ast.FuncDecl, obj types.Object) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, field := range fn.Type.Results.List {
		for _, name := range field.Names {
			if info.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}

// freshUnattributedError reports (as a non-empty description) whether e
// mints a brand-new error that wraps nothing: errors.New, or fmt.Errorf
// with no %w verb. Everything else — propagated values, errors.Join,
// wrapping Errorf, custom error structs — is considered attributed.
func freshUnattributedError(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	callee := staticCallee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	switch {
	case callee.Pkg().Path() == "errors" && callee.Name() == "New":
		return "errors.New"
	case callee.Pkg().Path() == "fmt" && callee.Name() == "Errorf":
		if len(call.Args) == 0 {
			return ""
		}
		format, ok := stringLiteral(info, call.Args[0])
		if !ok {
			return "" // dynamic format string: give it the benefit of the doubt
		}
		if !strings.Contains(format, "%w") {
			return "fmt.Errorf without %w"
		}
	}
	return ""
}

// stringLiteral resolves e to its compile-time string value, if it has one.
func stringLiteral(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return "", false
	}
	if s := tv.Value.ExactString(); len(s) >= 2 && s[0] == '"' {
		return s, true // quoted constant string; %w survives quoting untouched
	}
	return "", false
}

// checkCtxPropagation flags context.Background()/context.TODO() used as
// call arguments inside a function that already has a ctx parameter.
func checkCtxPropagation(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	if !hasCtxParam(info, fn) {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n, ok := n.(*ast.FuncLit); ok {
			_ = n
			return false // a closure may legitimately be a new root (goroutine body)
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			callee := staticCallee(info, inner)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "context" {
				continue
			}
			if callee.Name() == "Background" || callee.Name() == "TODO" {
				pass.Reportf(arg.Pos(), "%s has a context parameter but passes context.%s(); propagate the caller's ctx", fn.Name.Name, callee.Name())
			}
		}
		return true
	})
}

// hasCtxParam reports whether fn declares a context.Context parameter.
func hasCtxParam(info *types.Info, fn *ast.FuncDecl) bool {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if named, ok := types.Unalias(params.At(i).Type()).(*types.Named); ok {
			o := named.Obj()
			if o.Pkg() != nil && o.Pkg().Path() == "context" && o.Name() == "Context" {
				return true
			}
		}
	}
	return false
}
