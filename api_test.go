package s2c2_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden from the current sources")

const apiGolden = "testdata/api.golden"

// TestAPIGolden pins the exported surface of the root package and of every
// internal/ package: each exported func, method, type, const, var, struct
// field and interface method, one sorted line each, in testdata/api.golden.
// Exported methods and fields of unexported types count too: an exported
// alias (EncodedMatrix = encoded[...]) or embedding (MDSCode) reaches them.
// Files are parsed without regard to build constraints, so a name declared
// in tag-exclusive twin files (mapping_linux.go / mapping_other.go) is
// listed once and the golden is the same under every tag set. Rewrite it
// with
//
//	go test -run TestAPIGolden -update .
//
// and name the diff in the change's CHANGES.md entry.
func TestAPIGolden(t *testing.T) {
	got, err := exportedAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(apiGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestAPIGolden -update .)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotSet, wantSet := lineSet(got), lineSet(want)
	for l := range wantSet {
		if !gotSet[l] {
			t.Errorf("removed: %s", l)
		}
	}
	for l := range gotSet {
		if !wantSet[l] {
			t.Errorf("added:   %s", l)
		}
	}
	t.Errorf("exported API differs from %s (run go test -run TestAPIGolden -update . and name the diff in CHANGES.md)", apiGolden)
}

func lineSet(b []byte) map[string]bool {
	s := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		s[l] = true
	}
	return s
}

// exportedAPI renders the exported declarations of the package in root
// (the module's facade) and of every package under root/internal, skipping
// _test.go files and testdata directories. The lines are sorted and
// deduplicated.
func exportedAPI(root string) ([]byte, error) {
	dirs := []string{root}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range dirs {
		pkg, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if pkg == "." {
			pkg = "s2c2"
		}
		pkg = filepath.ToSlash(pkg)
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, l := range fileAPI(f) {
				seen[pkg+" "+l] = true
			}
		}
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n"), nil
}

// fileAPI lists one file's exported declarations.
func fileAPI(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, "func "+d.Name.Name+typeParams(d.Type.TypeParams)+signature(d.Type))
				continue
			}
			out = append(out, "method ("+types.ExprString(d.Recv.List[0].Type)+") "+d.Name.Name+signature(d.Type))
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				out = append(out, specAPI(d.Tok, spec)...)
			}
		}
	}
	return out
}

func specAPI(tok token.Token, spec ast.Spec) []string {
	var out []string
	switch s := spec.(type) {
	case *ast.ValueSpec:
		for _, n := range s.Names {
			if !n.IsExported() {
				continue
			}
			l := tok.String() + " " + n.Name
			if s.Type != nil {
				l += " " + types.ExprString(s.Type)
			}
			out = append(out, l)
		}
	case *ast.TypeSpec:
		name := s.Name.Name
		head := "type " + name + typeParams(s.TypeParams)
		if s.Assign.IsValid() {
			head += " ="
		}
		if !s.Name.IsExported() {
			head = "" // its exported fields and methods still count
		}
		switch t := s.Type.(type) {
		case *ast.StructType:
			out = appendHead(out, head, " struct")
			for _, fld := range t.Fields.List {
				typ := types.ExprString(fld.Type)
				if len(fld.Names) == 0 {
					if ast.IsExported(receiverName(fld.Type)) {
						out = append(out, "embed "+name+" "+typ)
					}
					continue
				}
				for _, n := range fld.Names {
					if n.IsExported() {
						out = append(out, "field "+name+"."+n.Name+" "+typ)
					}
				}
			}
		case *ast.InterfaceType:
			out = appendHead(out, head, " interface")
			for _, m := range t.Methods.List {
				if len(m.Names) == 0 {
					out = append(out, "embed "+name+" "+types.ExprString(m.Type))
					continue
				}
				for _, n := range m.Names {
					if n.IsExported() {
						out = append(out, "method "+name+"."+n.Name+signature(m.Type.(*ast.FuncType)))
					}
				}
			}
		default:
			out = appendHead(out, head, " "+types.ExprString(s.Type))
		}
	}
	return out
}

// appendHead appends an exported type's declaration line; an unexported
// type (head "") has none.
func appendHead(out []string, head, kind string) []string {
	if head == "" {
		return out
	}
	return append(out, head+kind)
}

// signature renders a func type's parameters and results, "(a int) error".
func signature(ft *ast.FuncType) string {
	return strings.TrimPrefix(types.ExprString(&ast.FuncType{Params: ft.Params, Results: ft.Results}), "func")
}

// typeParams renders a type parameter list, "[T ~float64 | ~uint32]".
func typeParams(fl *ast.FieldList) string {
	if fl == nil || len(fl.List) == 0 {
		return ""
	}
	parts := make([]string, len(fl.List))
	for i, f := range fl.List {
		names := make([]string, len(f.Names))
		for j, n := range f.Names {
			names[j] = n.Name
		}
		parts[i] = strings.Join(names, ", ") + " " + types.ExprString(f.Type)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// receiverName is the base type name of a receiver or embedded field:
// T for T, *T, T[P], *T[P, Q] and pkg.T.
func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
