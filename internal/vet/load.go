package vet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader turns a module tree into type-checked analysis units using
// nothing but the standard library: go/parser for syntax, go/types for
// semantics, and the source importer for the standard library. Module
// packages ("seve/...") are resolved by path inside the module tree, so
// the analyzer needs no module proxy, no export data and no network —
// the build environment is offline by design.
//
// Every directory yields up to two analysis units: the package together
// with its in-package _test.go files (test fixtures define actions and
// exercise the pooled delivery path, so they are first-class analysis
// targets), and the external "_test" package when one exists. Import
// resolution always uses the plain, test-free package, which is what the
// go tool does and what keeps the import graph acyclic.

// Unit is one type-checked body of code a checker runs over.
type Unit struct {
	// Path is the unit's import path; external test units carry the
	// "_test" suffix, testdata units a "testdata/"-rooted pseudo-path.
	Path  string
	Files []*ast.File
	Fset  *token.FileSet
	Pkg   *types.Package
	Info  *types.Info
	// Loader grants checkers access to the ASTs of dependency packages
	// inside the module (laneaffinity reads the lane markers on the
	// core functions the shard router calls).
	Loader *Loader
}

// Loader loads and caches module packages. It is safe for concurrent
// LoadDir calls: token.FileSet serializes internally, the standard
// library importer (which keeps an unguarded package cache) is wrapped
// in stdMu, and the module package cache single-flights concurrent
// loads of the same package — the first goroutine builds it, the rest
// wait on the entry's done channel.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std   types.Importer
	stdMu sync.Mutex

	mu   sync.Mutex
	base map[string]*basePkg
}

// basePkg is a cached dependency package: the directory's non-test
// files. Files and type info are retained so a checker can read
// declarations (doc-comment markers) of the functions a unit calls
// across packages. done closes when the load completes; fields are
// immutable afterwards.
type basePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
	done  chan struct{}
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		base:    make(map[string]*basePkg),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and reads the
// module path from its module directive.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("vet: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("vet: no go.mod above %s", abs)
		}
	}
}

// importView is one import-resolution chain: a view of the loader that
// remembers the packages this goroutine's recursion is already inside,
// so a module import cycle is reported instead of deadlocking on the
// in-flight cache entry.
type importView struct {
	l        *Loader
	visiting map[string]bool
}

func (l *Loader) newView() *importView {
	return &importView{l: l, visiting: make(map[string]bool)}
}

func (v *importView) Import(path string) (*types.Package, error) {
	if path == v.l.ModPath || strings.HasPrefix(path, v.l.ModPath+"/") {
		bp := v.l.loadBase(v, path)
		return bp.pkg, bp.err
	}
	return v.l.stdImport(path)
}

// stdImport guards the source importer, whose internal cache is not
// safe for concurrent use.
func (l *Loader) stdImport(path string) (*types.Package, error) {
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.ModRoot
	}
	return filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
}

// PathFor maps a directory inside the module to its import path.
func (l *Loader) PathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("vet: %s is outside module %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// loadBase parses and type-checks the non-test files of a module
// package, caching the result for import resolution. Concurrent loads
// of the same package single-flight on the cache entry; a re-entrant
// load within one view's chain is an import cycle.
func (l *Loader) loadBase(v *importView, path string) *basePkg {
	l.mu.Lock()
	if bp, ok := l.base[path]; ok {
		l.mu.Unlock()
		if v.visiting[path] {
			// Waiting on our own in-flight entry would deadlock: the
			// chain re-entered the package it is building.
			return &basePkg{err: fmt.Errorf("vet: import cycle through %s", path)}
		}
		<-bp.done
		return bp
	}
	bp := &basePkg{done: make(chan struct{})}
	l.base[path] = bp
	l.mu.Unlock()
	defer close(bp.done)

	v.visiting[path] = true
	defer delete(v.visiting, path)

	files, _, err := l.parseDir(l.dirFor(path), false)
	if err != nil {
		bp.err = err
		return bp
	}
	bp.files = files
	bp.info = newInfo()
	bp.pkg, bp.err = l.checkWith(v, path, files, bp.info)
	return bp
}

// EachLoaded visits every completed dependency package's files with
// their type info, for cross-package declaration lookups. In-flight
// loads are skipped: a unit's own dependencies always completed before
// its checkers run, and other goroutines' half-built packages are not
// this unit's business.
func (l *Loader) EachLoaded(visit func(files []*ast.File, info *types.Info)) {
	l.mu.Lock()
	snap := make([]*basePkg, 0, len(l.base))
	for _, bp := range l.base {
		snap = append(snap, bp)
	}
	l.mu.Unlock()
	for _, bp := range snap {
		select {
		case <-bp.done:
			if bp.err == nil && len(bp.files) > 0 {
				visit(bp.files, bp.info)
			}
		default:
		}
	}
}

// parseDir parses a directory's .go files. withTests selects whether
// _test.go files are included; the external test package's files are
// returned separately.
func (l *Loader) parseDir(dir string, withTests bool) (files, xtest []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if !withTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var pkgName string
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		name := f.Name.Name
		switch {
		case !strings.HasSuffix(n, "_test.go"):
			pkgName = name
			files = append(files, f)
		case strings.HasSuffix(name, "_test"):
			xtest = append(xtest, f)
		default:
			files = append(files, f)
		}
	}
	// A directory holding only external test files (package x_test) is
	// legal; files stays empty and the caller handles it.
	_ = pkgName
	return files, xtest, nil
}

// checkWith type-checks files as package path, resolving imports
// through the given view's chain. info may be nil for dependency loads
// where only the package scope matters.
func (l *Loader) checkWith(v *importView, path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var firstErr error
	conf := types.Config{
		Importer: v,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if firstErr != nil {
		err = firstErr
	}
	return pkg, err
}

// newInfo allocates the types.Info maps the checkers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// LoadDir loads the analysis units of one directory: the package
// augmented with its in-package test files, plus the external test
// package when present. Directories under testdata get a pseudo import
// path so they can never collide with real packages.
func (l *Loader) LoadDir(dir string) ([]*Unit, error) {
	path, err := l.PathFor(dir)
	if err != nil {
		return nil, err
	}
	files, xtest, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	if len(files) > 0 {
		info := newInfo()
		pkg, err := l.checkWith(l.newView(), path, files, info)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		units = append(units, &Unit{Path: path, Files: files, Fset: l.Fset, Pkg: pkg, Info: info, Loader: l})
	}
	if len(xtest) > 0 {
		// The external test package imports the base package; make sure
		// the cache holds the test-free variant before checking it.
		if len(files) > 0 && !underTestdata(dir) {
			l.loadBase(l.newView(), path)
		}
		info := newInfo()
		pkg, err := l.checkWith(l.newView(), path+"_test", xtest, info)
		if err != nil {
			return nil, fmt.Errorf("%s_test: %w", path, err)
		}
		units = append(units, &Unit{Path: path + "_test", Files: xtest, Fset: l.Fset, Pkg: pkg, Info: info, Loader: l})
	}
	return units, nil
}

func underTestdata(dir string) bool {
	for _, part := range strings.Split(filepath.ToSlash(dir), "/") {
		if part == "testdata" {
			return true
		}
	}
	return false
}

// ListPackageDirs returns every directory under root that the go tool
// would treat as a package: it skips testdata, vendor, hidden and
// underscore-prefixed directories, exactly the trees `go build ./...`
// ignores.
func ListPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != root && (n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasPrefix(d.Name(), ".") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
