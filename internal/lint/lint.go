// Package lint is MithriLog's project-invariant analyzer suite. It mirrors
// the shape of golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic
// — but is built entirely on the standard library (go/parser + go/types
// over `go list -deps -json` output), because this repository carries no
// module dependencies. The suite encodes invariants that ordinary vet
// checks cannot know about:
//
//	cycleaccount  cycle counters change only through hwsim's accounting API
//	lockorder     the cross-package mutex-acquisition graph stays acyclic
//	metricname    obs metrics: one registration site, valid name, constant labels
//	ctxflow       no context.Background()/TODO() below the facade on hot paths
//	errdrop       codec/device/index/cuckoo errors are never discarded
//	paperconst    the paper's constants are defined once, in hwsim
//	hotalloc      //mithrilint:hotpath functions are statically allocation-free
//	persistver    persisted streams write one canonical magic/version and check it on decode
//
// hotalloc adds a whole-module static call graph (callgraph.go) for
// same-package reachability, stdlib-only like the rest of the suite.
//
// See LINT.md at the repository root for the rationale behind each
// invariant and the suppression syntax. The cmd/mithrilint driver runs the
// suite over the module; analysistest_test.go runs single analyzers over the
// fixture packages under testdata/src.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"time"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// mithrilint:ignore suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Analyzers is the full suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CycleAccountAnalyzer,
		LockOrderAnalyzer,
		MetricNameAnalyzer,
		CtxFlowAnalyzer,
		ErrDropAnalyzer,
		PaperConstAnalyzer,
		HotAllocAnalyzer,
		PersistVerAnalyzer,
	}
}

// AnalyzerByName returns the named analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer *Analyzer
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer.Name)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Prog exposes every package loaded alongside this one, so
	// whole-program analyses (lock graphs, metric registries) can build a
	// global view while still reporting per-package.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Program is a set of type-checked packages sharing a FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	memoMu sync.Mutex
	memo   map[string]interface{}
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Standard marks GOROOT packages (loaded for type information only;
	// analyzers never run over them).
	Standard bool
}

// Memo builds a program-wide value once and caches it under key, so an
// analyzer visited once per package can construct its global state (call
// graphs, registries) a single time. The build runs outside the lock:
// builders may themselves call Memo (hotalloc builds on the memoized
// call graph), and a rare duplicate build of the same deterministic
// value is cheaper than a reentrancy deadlock.
func (prog *Program) Memo(key string, build func() interface{}) interface{} {
	prog.memoMu.Lock()
	if prog.memo == nil {
		prog.memo = make(map[string]interface{})
	}
	if v, ok := prog.memo[key]; ok {
		prog.memoMu.Unlock()
		return v
	}
	prog.memoMu.Unlock()
	v := build()
	prog.memoMu.Lock()
	defer prog.memoMu.Unlock()
	if prior, ok := prog.memo[key]; ok {
		return prior
	}
	prog.memo[key] = v
	return v
}

// RunOptions tunes a Run.
type RunOptions struct {
	// StrictIgnores additionally reports every well-formed
	// mithrilint:ignore directive that suppressed nothing in this run
	// (for an analyzer that actually ran, or "all"). Stale suppressions
	// are review debt: the finding they silenced is gone, but they would
	// silently swallow the next one. CI runs with this on.
	StrictIgnores bool
}

// Run applies the analyzers to the given packages (skipping GOROOT
// packages), filters suppressed findings, and returns the remainder sorted
// by position. Malformed suppression comments (no reason, unknown
// analyzer) are themselves findings, reported under the pseudo-analyzer
// "ignore".
func Run(prog *Program, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunWithOptions(prog, pkgs, analyzers, RunOptions{})
}

// RunWithOptions is Run with explicit options (RunTimed without the
// timings).
func RunWithOptions(prog *Program, pkgs []*Package, analyzers []*Analyzer, opts RunOptions) []Diagnostic {
	diags, _ := RunTimed(prog, pkgs, analyzers, opts)
	return diags
}

// AnalyzerTiming is one analyzer's wall-clock share of a run. The first
// analyzer to touch a memoized program-wide fact (the call graph) pays
// its construction cost; later consumers read the cache. The skew is
// stable because analyzers run in suite order.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed is RunWithOptions, also returning per-analyzer wall-clock
// timings in suite order.
func RunTimed(prog *Program, pkgs []*Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, []AnalyzerTiming) {
	var diags []Diagnostic
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		for _, pkg := range pkgs {
			if pkg.Standard {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg, Prog: prog, diags: &diags}
			a.Run(pass)
		}
		timings = append(timings, AnalyzerTiming{Name: a.Name, Elapsed: time.Since(start)})
	}
	diags = filterSuppressed(prog, pkgs, diags, analyzers, opts)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags, timings
}

// IgnorePrefix is the suppression comment marker:
//
//	//mithrilint:ignore <analyzer> <reason...>
//	//mithrilint:ignore all <reason...>
//
// on the flagged line or the line directly above it suppresses that
// analyzer's findings there ("all" suppresses the whole suite). The
// reason is mandatory — it is the review trail for every silenced
// finding. A suppression without one, or naming an analyzer that does not
// exist, suppresses nothing and is itself reported.
const IgnorePrefix = "mithrilint:ignore"

// ignoreAnalyzer attributes diagnostics about malformed suppression
// comments. It is not part of Analyzers(): it cannot be run, only
// reported under.
var ignoreAnalyzer = &Analyzer{
	Name: "ignore",
	Doc:  "mithrilint:ignore comments name a real analyzer (or \"all\") and carry a reason",
}

// ignoreDirective is one well-formed suppression comment. It covers its
// own line and the next (so it works both trailing a statement and on
// its own line above one) but is a single record: suppressing a finding
// on either line makes it used.
type ignoreDirective struct {
	file string
	line int // the directive's own line; it also covers line+1
	name string
	pos  token.Position
}

func (d *ignoreDirective) covers(file string, line int) bool {
	return d.file == file && (d.line == line || d.line+1 == line)
}

// ignoreDirectives collects every suppression comment, and returns a
// diagnostic for each malformed one.
func ignoreDirectives(prog *Program, pkgs []*Package) ([]*ignoreDirective, []Diagnostic) {
	var dirs []*ignoreDirective
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Directive form only ("//mithrilint:ignore", no space),
					// like //go:build — prose that merely mentions the
					// marker is not a suppression.
					if !strings.HasPrefix(c.Text, "//"+IgnorePrefix) {
						continue
					}
					fields := strings.Fields(c.Text[len("//"+IgnorePrefix):])
					pos := prog.Fset.Position(c.Pos())
					if len(fields) < 2 {
						bad = append(bad, Diagnostic{
							Analyzer: ignoreAnalyzer,
							Pos:      pos,
							Message: "mithrilint:ignore needs an analyzer name and a reason " +
								"(//mithrilint:ignore <analyzer|all> <why>); nothing suppressed",
						})
						continue
					}
					if fields[0] != "all" && AnalyzerByName(fields[0]) == nil {
						bad = append(bad, Diagnostic{
							Analyzer: ignoreAnalyzer,
							Pos:      pos,
							Message: fmt.Sprintf("mithrilint:ignore names unknown analyzer %q; nothing suppressed",
								fields[0]),
						})
						continue
					}
					dirs = append(dirs, &ignoreDirective{
						file: pos.Filename,
						line: pos.Line,
						name: fields[0],
						pos:  pos,
					})
				}
			}
		}
	}
	return dirs, bad
}

func filterSuppressed(prog *Program, pkgs []*Package, diags []Diagnostic, analyzers []*Analyzer, opts RunOptions) []Diagnostic {
	dirs, bad := ignoreDirectives(prog, pkgs)
	used := make(map[*ignoreDirective]bool, len(dirs))
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if !dir.covers(d.Pos.Filename, d.Pos.Line) {
				continue
			}
			if dir.name == d.Analyzer.Name || dir.name == "all" {
				suppressed = true
				used[dir] = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	if opts.StrictIgnores {
		ran := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		for _, dir := range dirs {
			// Only directives this run could have exercised can be called
			// stale: a named analyzer must have actually run ("all" always
			// qualifies, since CI strict runs use the full suite).
			if used[dir] || (dir.name != "all" && !ran[dir.name]) {
				continue
			}
			bad = append(bad, Diagnostic{
				Analyzer: ignoreAnalyzer,
				Pos:      dir.pos,
				Message: fmt.Sprintf("mithrilint:ignore for %s suppresses no findings; remove the stale directive",
					dir.name),
			})
		}
	}
	return append(out, bad...)
}

// ---------------------------------------------------------------------------
// Shared type-inspection helpers.

// pkgPathHasSuffix reports whether path equals suffix or ends in
// "/"+suffix — how analyzers recognize role packages (e.g.
// "internal/hwsim") in both the real module and test fixtures.
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// internalSegment returns the path element after the last "internal/"
// of an import path ("core" for mithrilog/internal/core/x), or "" when
// there is none. Analyzers that apply to a set of packages scope
// themselves by it, in the real module and in fixtures alike.
func internalSegment(path string) string {
	i := strings.LastIndex(path, "internal/")
	if i < 0 {
		return ""
	}
	seg := path[i+len("internal/"):]
	if j := strings.IndexByte(seg, '/'); j >= 0 {
		seg = seg[:j]
	}
	return seg
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call to the declared function or method it
// statically invokes, or nil (indirect calls, conversions, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// fieldOf resolves a selector expression to the struct field it names, or
// nil when it is not a field selection.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// Qualified references (pkg.Var) land in Uses, not Selections.
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// lastResultIsError reports whether the call's function type returns an
// error as its final result.
func lastResultIsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return isErrorType(res.At(res.Len() - 1).Type())
}

// constString returns the compile-time string value of an expression, if
// it has one.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	if tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
