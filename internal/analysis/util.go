package analysis

import (
	"go/ast"
	"go/types"
)

// moduleIndex maps type-checker function objects back to their syntax
// across every package of a load, which is what the call-graph walks need.
//
// Keys are (package path, receiver-qualified name) strings rather than
// *types.Func identities: a cross-package call site resolves to the
// importer's API-only copy of the callee, a distinct object from the one
// minted when the callee's own package was fully checked. String keys
// make both copies land on the same declaration.
//
// The index also records, for every type parameter declared in the load,
// its owner (generic function or type) and position, and for every owner
// the type-argument lists it is instantiated with (types.Info.Instances),
// so a method call on a type-parameter receiver can be resolved to the
// methods of the concrete type arguments.
type moduleIndex struct {
	decls map[typeKey]*ast.FuncDecl
	pkgOf map[*ast.FuncDecl]*Package

	owner map[*types.TypeParam]typeParamSlot
	targs map[typeKey][]*types.TypeList
}

// typeParamSlot locates a type parameter: the owner's key and its index in
// the owner's type-parameter list.
type typeParamSlot struct {
	owner typeKey
	index int
}

func buildIndex(pkgs []*Package) *moduleIndex {
	idx := &moduleIndex{
		decls: make(map[typeKey]*ast.FuncDecl),
		pkgOf: make(map[*ast.FuncDecl]*Package),
		owner: make(map[*types.TypeParam]typeParamSlot),
		targs: make(map[typeKey][]*types.TypeList),
	}
	for _, pkg := range pkgs {
		info := pkg.Info
		for id, inst := range info.Instances {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				idx.targs[funcKey(obj)] = append(idx.targs[funcKey(obj)], inst.TypeArgs)
			case *types.TypeName:
				idx.targs[nameKey(obj)] = append(idx.targs[nameKey(obj)], inst.TypeArgs)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					obj, ok := info.Defs[decl.Name].(*types.Func)
					if !ok {
						continue
					}
					if _, dup := idx.decls[funcKey(obj)]; !dup {
						idx.decls[funcKey(obj)] = decl
					}
					idx.pkgOf[decl] = pkg
					sig := obj.Type().(*types.Signature)
					idx.own(sig.TypeParams(), funcKey(obj))
					if recv := sig.Recv(); recv != nil {
						if named := namedOf(recv.Type()); named != nil {
							idx.own(sig.RecvTypeParams(), nameKey(named.Obj()))
						}
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
							if named, ok := tn.Type().(*types.Named); ok {
								idx.own(named.TypeParams(), nameKey(tn))
							}
						}
					}
				}
			}
		}
	}
	return idx
}

func (idx *moduleIndex) own(tps *types.TypeParamList, owner typeKey) {
	for i := 0; i < tps.Len(); i++ {
		idx.owner[tps.At(i)] = typeParamSlot{owner, i}
	}
}

func nameKey(tn *types.TypeName) typeKey {
	pkg := ""
	if tn.Pkg() != nil {
		pkg = tn.Pkg().Path()
	}
	return typeKey{pkg, tn.Name()}
}

// typeArgs collects the concrete types tp is instantiated with across the
// load. A type argument that is itself a type parameter (a generic caller
// passing its own parameter along) is resolved through its owner's
// instantiations in turn.
func (idx *moduleIndex) typeArgs(tp *types.TypeParam, seen map[*types.TypeParam]bool, out []types.Type) []types.Type {
	if seen[tp] {
		return out
	}
	seen[tp] = true
	slot, ok := idx.owner[tp]
	if !ok {
		return out
	}
	for _, list := range idx.targs[slot.owner] {
		if slot.index >= list.Len() {
			continue
		}
		if inner, ok := list.At(slot.index).(*types.TypeParam); ok {
			out = idx.typeArgs(inner, seen, out)
		} else {
			out = append(out, list.At(slot.index))
		}
	}
	return out
}

// typeParamCallees resolves x.m(…), where x's type is a type parameter P,
// to method m of every type argument P is instantiated with.
func (idx *moduleIndex) typeParamCallees(info *types.Info, call *ast.CallExpr) []*types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	tp, ok := recv.(*types.TypeParam)
	if !ok {
		return nil
	}
	m := s.Obj()
	var fns []*types.Func
	for _, t := range idx.typeArgs(tp, map[*types.TypeParam]bool{}, nil) {
		if fn, ok := lookupMethod(t, m.Pkg(), m.Name()); ok {
			fns = append(fns, fn)
		}
	}
	return fns
}

func lookupMethod(t types.Type, pkg *types.Package, name string) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// lookup resolves a (possibly imported-copy) function object to its
// declaration and declaring package, if the load carries its source.
func (idx *moduleIndex) lookup(fn *types.Func) (*ast.FuncDecl, *Package) {
	decl, ok := idx.decls[funcKey(fn)]
	if !ok {
		return nil, nil
	}
	return decl, idx.pkgOf[decl]
}

// staticCallee resolves the function a call statically invokes: a named
// function — explicitly instantiated (f[T](…)) or not — or a method
// called on a concrete receiver. Calls through interfaces, type
// parameters (see moduleIndex.typeParamCallees), function values, and
// struct function fields resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface and type-parameter method calls have no one
				// body to walk.
				if types.IsInterface(sel.Recv()) {
					return nil
				}
				return fn
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// walkStack traverses root in source order, calling visit with each node
// and the stack of its ancestors (outermost first). Returning false skips
// the node's children.
func walkStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !visit(n, stack) {
			return false // children skipped: Inspect sends no nil pop
		}
		stack = append(stack, n)
		return true
	})
}

// funcName renders a function declaration for diagnostics: "Fn" or
// "(*T).Method".
func funcName(fn *ast.FuncDecl, pkg *Package) string {
	if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			return "(" + types.TypeString(recv.Type(), types.RelativeTo(pkg.Types)) + ")." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
