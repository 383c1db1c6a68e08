package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of one module completely offline:
// module packages load from their directories, everything else resolves
// from GOROOT source. Dependencies are checked API-only (bodies skipped),
// target packages fully, so a whole-module load stays fast while the
// analyzers get complete syntax and type information for every target.
type Loader struct {
	// ModDir is the module root (the directory holding go.mod).
	ModDir string
	// ModPath is the module path from go.mod.
	ModPath string
	// Tags are extra build tags ("noasm").
	Tags []string
	// IncludeTests merges in-package _test.go files into their package and
	// loads external (package foo_test) test packages alongside.
	IncludeTests bool
	// ExtraRoots maps import-path prefixes to directories outside the
	// module tree, letting fixture packages under testdata/src import each
	// other by bare path ("wire" → testdata/src/wire).
	ExtraRoots map[string]string

	Fset *token.FileSet

	ctxt build.Context
	deps map[string]*types.Package // API-only dependency cache
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string, tags []string) (*Loader, error) {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return newLoaderAt(modDir, modPath, tags), nil
}

func newLoaderAt(modDir, modPath string, tags []string) *Loader {
	fset := token.NewFileSet()
	ctxt := build.Default
	ctxt.BuildTags = tags
	// Cgo-gated files are excluded so every package — net included —
	// selects its pure-Go variant and type-checks without invoking cgo.
	ctxt.CgoEnabled = false
	return &Loader{
		ModDir:  modDir,
		ModPath: modPath,
		Tags:    tags,
		Fset:    fset,
		ctxt:    ctxt,
		deps:    make(map[string]*types.Package),
	}
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (modDir, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
	}
}

// Load resolves the patterns ("./...", "./internal/kernel", import paths)
// to module packages and returns them fully type-checked, in import-path
// order. With IncludeTests set, external test packages follow their
// package under test.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		got, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

// expand turns patterns into package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	base := func(pat string) string {
		if strings.HasPrefix(pat, l.ModPath) {
			pat = strings.TrimPrefix(strings.TrimPrefix(pat, l.ModPath), "/")
		}
		return filepath.Join(l.ModDir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
	}
	for _, pat := range patterns {
		switch {
		case pat == "...":
			pat = "./..."
			fallthrough
		case strings.HasSuffix(pat, "/..."):
			all, err := l.walkTree(base(strings.TrimSuffix(pat, "/...")))
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				add(d)
			}
		default:
			add(base(pat))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// walkModule lists every directory under the module root that contains
// buildable Go files, skipping testdata, vendored and hidden trees.
func (l *Loader) walkModule() ([]string, error) {
	return l.walkTree(l.ModDir)
}

// walkTree lists every directory under root that contains buildable Go
// files, with the same skips.
func (l *Loader) walkTree(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// importPathFor maps a module directory back to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModDir, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// dirFor resolves an import path to a source directory: module packages
// under ModDir, extra roots for fixtures, everything else GOROOT source
// (with the GOROOT vendor fallback for the std-vendored golang.org/x
// packages the standard library itself imports).
func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.ModDir
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModDir, filepath.FromSlash(rest))
	}
	for prefix, root := range l.ExtraRoots {
		if prefix == "" {
			// Catch-all fixture root: only paths that exist there; stdlib
			// imports fall through to GOROOT below.
			if d := filepath.Join(root, filepath.FromSlash(path)); dirExists(d) {
				return d
			}
			continue
		}
		if path == prefix {
			return root
		}
		if rest, ok := strings.CutPrefix(path, prefix+"/"); ok {
			return filepath.Join(root, filepath.FromSlash(rest))
		}
	}
	dir := filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(path))
	if _, err := os.Stat(dir); err != nil {
		if v := filepath.Join(runtime.GOROOT(), "src", "vendor", filepath.FromSlash(path)); dirExists(v) {
			return v
		}
	}
	return dir
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// matchedFiles lists the buildable .go files of dir under the loader's
// build context, split into package files and _test.go files (both only
// in-package; external foo_test files land in xtest).
func (l *Loader) matchedFiles(dir string) (srcs, tests, xtests []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var pending [][2]string // file, declared package name
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := l.ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			continue
		}
		full := filepath.Join(dir, name)
		declared, err := packageClause(l.Fset, full)
		if err != nil {
			return nil, nil, nil, err
		}
		if !strings.HasSuffix(name, "_test.go") {
			srcs = append(srcs, full)
			continue
		}
		pending = append(pending, [2]string{full, declared})
	}
	for _, p := range pending {
		if strings.HasSuffix(p[1], "_test") {
			xtests = append(xtests, p[0])
		} else {
			tests = append(tests, p[0])
		}
	}
	sort.Strings(srcs)
	sort.Strings(tests)
	sort.Strings(xtests)
	return srcs, tests, xtests, nil
}

// packageClause parses just the package clause of file.
func packageClause(fset *token.FileSet, file string) (string, error) {
	f, err := parser.ParseFile(fset, file, nil, parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	return f.Name.Name, nil
}

// loadDir fully loads the package in dir (and, with IncludeTests, its
// external test package).
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	path := l.importPathFor(dir)
	srcs, tests, xtests, err := l.matchedFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 && len(tests) == 0 {
		return nil, nil // nothing buildable under these tags
	}
	files := srcs
	testSet := make(map[*ast.File]bool)
	if l.IncludeTests {
		files = append(append([]string{}, srcs...), tests...)
	}
	pkg, err := l.check(path, files, func(f *ast.File, src string) {
		if strings.HasSuffix(src, "_test.go") {
			testSet[f] = true
		}
	})
	if err != nil {
		return nil, err
	}
	pkg.TestFiles = testSet
	out := []*Package{pkg}

	if l.IncludeTests && len(xtests) > 0 {
		xset := make(map[*ast.File]bool)
		xpkg, err := l.check(path+"_test", xtests, func(f *ast.File, src string) { xset[f] = true })
		if err != nil {
			return nil, err
		}
		xpkg.ForTest = path
		xpkg.TestFiles = xset
		out = append(out, xpkg)
	}
	return out, nil
}

// check parses files and type-checks them as one package.
func (l *Loader) check(path string, files []string, note func(*ast.File, string)) (*Package, error) {
	var asts []*ast.File
	for _, file := range files {
		f, err := parser.ParseFile(l.Fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if note != nil {
			note(f, file)
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var firstErr error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(path, l.Fset, asts, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, firstErr)
	}
	name := ""
	if len(asts) > 0 {
		name = asts[0].Name.Name
	}
	return &Package{Path: path, Name: name, Files: asts, Types: tpkg, Info: info}, nil
}

// loaderImporter resolves imports for target packages: module (and extra
// root) packages are type-checked from source API-only and memoized;
// GOROOT packages go through the standard library's source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	dir := l.dirFor(path)
	srcs, _, _, err := l.matchedFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files for %s in %s", path, dir)
	}
	var asts []*ast.File
	for _, file := range srcs {
		f, err := parser.ParseFile(l.Fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	var firstErr error
	conf := types.Config{
		Importer:         li,
		IgnoreFuncBodies: true,
		Sizes:            types.SizesFor("gc", build.Default.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, _ := conf.Check(path, l.Fset, asts, nil)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: importing %s: %w", path, firstErr)
	}
	l.deps[path] = pkg
	return pkg, nil
}
