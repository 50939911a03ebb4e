package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages entirely from source using only the standard
// library. Package discovery and import resolution come from
// `go list -deps -json`, so the loader sees exactly the files the build
// does; type checking then walks the dependency graph bottom-up with
// go/types. The repository has no module dependencies, so every import
// resolves into the module itself or GOROOT and the whole load is
// hermetic (no network, no module cache).
//
// Fixture roots (analysistest) are overlaid on top: an import path found
// under a fixture root shadows `go list` resolution, which lets test
// fixtures fake role packages such as mithrilog/internal/hwsim.
type Loader struct {
	// ModuleDir is the directory `go list` runs in.
	ModuleDir string
	// FixtureRoots are GOPATH-style src directories searched before go
	// list resolution (testdata/src for analysistest).
	FixtureRoots []string

	fset  *token.FileSet
	metas map[string]*listMeta
	pkgs  map[string]*Package
	order []string // go list emission order of module packages
}

// listMeta is the subset of `go list -json` output the loader needs.
type listMeta struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(moduleDir string) *Loader {
	return &Loader{
		ModuleDir: moduleDir,
		fset:      token.NewFileSet(),
		metas:     make(map[string]*listMeta),
		pkgs:      make(map[string]*Package),
	}
}

// ModuleLoader returns a loader for l's module that shares l's file set
// and starts from the GOROOT packages l has already listed and
// type-checked, so a second load does not check the standard library
// again. l's fixture roots are not inherited: no module path resolves
// under them.
func (l *Loader) ModuleLoader() *Loader {
	m := NewLoader(l.ModuleDir)
	m.fset = l.fset
	for path, pkg := range l.pkgs {
		if pkg != nil && pkg.Standard {
			m.pkgs[path] = pkg
			m.metas[path] = l.metas[path]
		}
	}
	return m
}

// goList runs `go list -deps -json` on the patterns and merges the result
// into the loader's metadata table, returning the import paths the
// patterns matched (dependencies excluded) in emission order.
func (l *Loader) goList(patterns ...string) ([]string, error) {
	args := append([]string{"list", "-deps",
		"-json=ImportPath,Dir,GoFiles,ImportMap,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleDir
	// CGO off so cgo-using stdlib packages (net, os/user) resolve to their
	// pure-Go file sets, which go/types can check from source.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var matched []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var m listMeta
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if _, ok := l.metas[m.ImportPath]; !ok {
			mm := m
			l.metas[m.ImportPath] = &mm
		}
		matched = append(matched, m.ImportPath)
	}
	return matched, nil
}

// LoadModule loads (and type-checks) the packages matched by the patterns,
// plus everything they depend on, and returns the matched non-GOROOT
// packages together with the full program.
func (l *Loader) LoadModule(patterns ...string) ([]*Package, *Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := l.goList(patterns...)
	if err != nil {
		return nil, nil, err
	}
	var out []*Package
	for _, path := range all {
		pkg, err := l.load(path)
		if err != nil {
			return nil, nil, err
		}
		if !pkg.Standard {
			out = append(out, pkg)
		}
	}
	return out, l.program(), nil
}

// LoadFixture loads one fixture package (by import path, resolved under
// the fixture roots) and its dependencies.
func (l *Loader) LoadFixture(path string) (*Package, *Program, error) {
	pkg, err := l.load(path)
	if err != nil {
		return nil, nil, err
	}
	return pkg, l.program(), nil
}

func (l *Loader) program() *Program {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	prog := &Program{Fset: l.fset}
	for _, p := range paths {
		prog.Pkgs = append(prog.Pkgs, l.pkgs[p])
	}
	return prog
}

// fixtureDir resolves an import path under the fixture roots.
func (l *Loader) fixtureDir(path string) (string, bool) {
	for _, root := range l.FixtureRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			// Only treat it as a package if it holds .go files.
			ents, err := os.ReadDir(dir)
			if err != nil {
				continue
			}
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					return dir, true
				}
			}
		}
	}
	return "", false
}

// load returns the type-checked package for an import path, loading it and
// its dependencies on first use.
func (l *Loader) load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{Path: path, Types: types.Unsafe, Standard: true}, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle guard
	loaded := false
	defer func() {
		// Do not leave the guard entry behind on failure: the loader is
		// shared across analysistest cases and a broken fixture must not
		// poison later loads of unrelated paths.
		if !loaded {
			delete(l.pkgs, path)
		}
	}()

	dir, isFixture := l.fixtureDir(path)
	meta := l.metas[path]
	if !isFixture {
		if meta == nil {
			// A dependency outside the already-listed set (fixtures
			// importing stdlib); resolve it with its own go list call.
			if _, err := l.goList(path); err != nil {
				return nil, err
			}
			meta = l.metas[path]
		}
		if meta == nil {
			return nil, fmt.Errorf("lint: cannot resolve import %q", path)
		}
		dir = meta.Dir
	}

	var files []*ast.File
	var names []string
	if isFixture {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
	} else {
		names = meta.GoFiles
	}
	// GOROOT packages are loaded for their exported types only: analyzers
	// never read their comments, function bodies or type information.
	std := meta != nil && !isFixture && meta.Standard
	mode := parser.ParseComments | parser.SkipObjectResolution
	if std {
		mode = parser.SkipObjectResolution
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{Path: path, Dir: dir, Files: files, Standard: std, Info: &types.Info{}}
	if !std {
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}

	var importMap map[string]string
	if meta != nil && !isFixture {
		importMap = meta.ImportMap
	}
	var typeErrs []error
	conf := types.Config{
		IgnoreFuncBodies: std,
		Importer:         &pkgImporter{l: l, importMap: importMap},
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	// GOROOT packages are loaded for type information only; tolerate
	// residual errors there (e.g. build-tag oddities) but insist that the
	// packages under analysis check cleanly, since the analyzers trust the
	// type information.
	if len(typeErrs) > 0 && !pkg.Standard {
		return nil, fmt.Errorf("lint: type errors in %s: %v", path, typeErrs[0])
	}
	loaded = true
	l.pkgs[path] = pkg
	return pkg, nil
}

// pkgImporter adapts the loader to go/types, applying the importing
// package's vendor ImportMap (GOROOT vendors golang.org/x/... under
// vendor/ paths).
type pkgImporter struct {
	l         *Loader
	importMap map[string]string
}

func (im *pkgImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := im.importMap[path]; ok {
		path = mapped
	}
	pkg, err := im.l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}
