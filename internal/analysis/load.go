package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path within the module
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// usedDirectives records which ignore directives suppressed a
	// diagnostic (keyed like coverKey); see UnusedDirectives. The
	// driver runs all analyzers of one package on one goroutine, so no
	// lock is needed.
	usedDirectives map[string]bool
}

// Loader parses and type-checks packages of one module without any
// external dependencies: module-internal import paths are resolved against
// the module root, everything else (the standard library) is delegated to
// the go/importer source importer, which type-checks GOROOT/src directly
// so no pre-compiled export data is required.
//
// The loader is safe for concurrent Load calls from the package-parallel
// driver, under the driver's scheduling contract: a package is only
// scheduled once all of its module-internal dependencies are already
// loaded, so the recursive imports issued by the type checker always hit
// the memo. Standard-library imports are serialized on stdMu because the
// go/importer source importer keeps unsynchronized internal caches.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	std   types.Importer
	stdMu sync.Mutex

	mu      sync.Mutex // guards pkgs and loading
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at modRoot.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: abs,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	//tdbvet:ignore layering reads go.mod module metadata, not page data
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// inModule reports whether path names a package of this module.
func (l *Loader) inModule(path string) bool {
	return path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.ModRoot
	}
	return filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.inModule(path) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return l.std.Import(path)
}

// Load parses and type-checks the module package named by path (memoized).
func (l *Loader) Load(path string) (*Package, error) {
	l.mu.Lock()
	if pkg, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return pkg, nil
	}
	if l.loading[path] {
		l.mu.Unlock()
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.loading, path)
		l.mu.Unlock()
	}()

	dir := l.dirFor(path)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files", path)
	}
	files := make([]string, len(names))
	for i, name := range names {
		files[i] = filepath.Join(dir, name)
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.pkgs[path] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// Loaded returns every module package loaded so far, sorted by import
// path — the deterministic input to analyzer Finish passes.
func (l *Loader) Loaded() []*Package {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Package, 0, len(l.pkgs))
	for _, pkg := range l.pkgs {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Deps returns the module-internal import paths of the package named by
// path, from a syntax-only parse (no type checking). The parallel driver
// uses this to schedule packages in dependency order before any
// type-checking starts.
func (l *Loader) Deps(path string) ([]string, error) {
	dir := l.dirFor(path)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	fset := token.NewFileSet() // throwaway: positions are never reported
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.inModule(p) && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// LoadFiles parses and type-checks an explicit list of files as one
// package named by path. Used by the golden-fixture tests, where the
// fixture lives under testdata and is not part of the module proper.
func (l *Loader) LoadFiles(path string, filenames ...string) (*Package, error) {
	dir := ""
	if len(filenames) > 0 {
		dir = filepath.Dir(filenames[0])
	}
	return l.check(path, dir, filenames)
}

func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// goFilesIn lists the buildable non-test Go files of dir, sorted: build
// constraints and file-name suffixes are matched against the host, as the
// go command would.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// ModulePackages walks the module tree and returns the import paths of
// every package (directory with at least one non-test Go file), skipping
// testdata, vendored code, and hidden directories.
func (l *Loader) ModulePackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModRoot &&
			(name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(p)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModPath)
		} else {
			out = append(out, l.ModPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
