package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotpathDirective marks a function declaration as a hot path:
//
//	//mithrilint:hotpath
//	func (t *Tokenizer) TokenizeLine(dst []Word, line []byte) []Word {
//
// HotAllocAnalyzer then proves the function — and everything it reaches
// through same-package static calls — allocation-free: no unguarded
// make/new, no heap composite literals, no implicit interface
// conversions, no string concatenation or copying conversions, no
// closures or goroutines, and no appends growing a fresh slice. This is
// the static complement of the runtime AllocsPerRun guards in the
// benchmark suite: the guards sample executions, the analyzer covers
// paths.
//
// Sanctioned non-allocating idioms, each matching a deliberate pattern
// in the optimization inventory (PERFORMANCE.md):
//
//   - `string(b)` as a map index (probe or insert) or comparison
//     operand: the compiler elides the copy (a map insert still copies
//     its key; the page dictionary keys tokens by their bytes and their
//     span in the page text instead, so it copies none).
//   - make inside an `if` whose condition contains cap(): the
//     grow-on-demand shape (Decompress) that is amortized-free.
//   - Appends rooted in a parameter, a struct field, or a reslice of
//     either: buffer reuse, the whole point of the hot path.
//   - `return ..., err`-shaped exits when the function's last result is
//     error: cold paths, excluded like the AllocsPerRun happy-path
//     guarantee they mirror.
//   - Function literals that are immediately invoked or only ever
//     called through a local: the compiler does not heap-allocate them.
//
// Cross-package calls are a facade boundary: the callee is checked only
// if it carries (or is reachable from) its own hotpath mark in its own
// package. Indirect calls (interfaces, function values) are invisible
// to the static graph and therefore unchecked.
const HotpathDirective = "//mithrilint:hotpath"

var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc: "functions marked //mithrilint:hotpath (and their same-package " +
		"callees) are statically allocation-free",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	facts := pass.Prog.Memo("hotalloc", func() interface{} {
		return buildHotFacts(pass.Prog)
	}).(*hotFacts)
	for _, v := range facts.viol {
		if v.pkg == pass.Pkg.Path {
			pass.Reportf(v.pos, "%s", v.msg)
		}
	}
}

type hotFacts struct {
	viol []hotViolation
}

// hotViolation is one finding, attributed to its package.
type hotViolation struct {
	pkg string
	pos token.Pos
	msg string
}

func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, HotpathDirective) {
			return true
		}
	}
	return false
}

// HotpathFunctions returns the funcKeys of every explicitly
// //mithrilint:hotpath-marked declaration, sorted. The cmd/mithrilint
// -hotpaths flag prints this list; CI diffs it against PERFORMANCE.md's
// optimization inventory.
func HotpathFunctions(prog *Program) []string {
	cg := moduleCallGraph(prog)
	var out []string
	for _, key := range cg.keys {
		if hasHotpathDirective(cg.decls[key]) {
			out = append(out, key)
		}
	}
	return out
}

func buildHotFacts(prog *Program) *hotFacts {
	cg := moduleCallGraph(prog)
	roots := HotpathFunctions(prog)
	// Attribute every checked function to the mark that pulls it in:
	// itself when marked, else the first root that reaches it.
	att := make(map[string]string, len(roots))
	for _, r := range roots {
		att[r] = r
	}
	for k, v := range cg.samePackageReachable(roots) {
		if _, ok := att[k]; !ok {
			att[k] = v
		}
	}
	keys := make([]string, 0, len(att))
	for k := range att {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	facts := &hotFacts{}
	for _, key := range keys {
		fd, pkg := cg.decls[key], cg.declPkg[key]
		suffix := ""
		if att[key] != key {
			suffix = fmt.Sprintf(" [reached from %s %s]", HotpathDirective, att[key])
		}
		w := &hotWalker{
			pkg:  pkg,
			info: pkg.Info,
			report: func(pos token.Pos, format string, args ...interface{}) {
				facts.viol = append(facts.viol, hotViolation{
					pkg: pkg.Path,
					pos: pos,
					msg: fmt.Sprintf(format, args...) + suffix,
				})
			},
		}
		w.checkFunc(fd)
	}
	sort.Slice(facts.viol, func(i, j int) bool { return facts.viol[i].pos < facts.viol[j].pos })
	return facts
}

// hotCtx is the walk context: whether the surrounding branch was taken
// under a cap() guard, and whether the enclosing function's last result
// is error (enabling the cold-exit exemption).
type hotCtx struct {
	capGuard    bool
	lastIsError bool
}

type hotWalker struct {
	pkg    *Package
	info   *types.Info
	report func(token.Pos, string, ...interface{})
	// origin marks parameters and reuse-rooted locals: legal append bases.
	origin map[*types.Var]bool
	// callOnly marks locals holding function literals used only in call
	// position (the compiler keeps those off the heap).
	callOnly map[*types.Var]bool
	// exemptConv marks string/[]byte conversions in map-index or
	// comparison position.
	exemptConv map[ast.Node]bool
}

func (w *hotWalker) checkFunc(fd *ast.FuncDecl) {
	w.origin = make(map[*types.Var]bool)
	for _, p := range declParams(w.info, fd) {
		if p != nil {
			w.origin[p] = true
		}
	}
	w.collectOrigins(fd.Body)
	w.callOnly = callOnlyClosures(w.info, fd.Body)
	w.exemptConv = exemptConversions(w.info, fd.Body)
	ctx := hotCtx{lastIsError: funcLastIsError(w.info.Defs[fd.Name])}
	w.walkBody(fd.Body, ctx)
}

func funcLastIsError(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return sigLastIsError(fn.Type())
}

func sigLastIsError(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	return res.Len() > 0 && isErrorType(res.At(res.Len()-1).Type())
}

// collectOrigins runs the reuse-origin fixpoint: a local assigned from a
// parameter, a field, a reslice/index of either, or an append rooted in
// one is itself a legal append base.
func (w *hotWalker) collectOrigins(body *ast.BlockStmt) {
	for round := 0; round < 4; round++ {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v := identVar(w.info, id)
				if v == nil || w.origin[v] {
					continue
				}
				if rhs := rhsFor(as, i); rhs != nil && w.appendBaseOK(rhs) {
					w.origin[v] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

func (w *hotWalker) appendBaseOK(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return w.origin[identVar(w.info, x)]
	case *ast.SelectorExpr:
		return fieldOf(w.info, x) != nil
	case *ast.SliceExpr:
		return w.appendBaseOK(x.X)
	case *ast.IndexExpr:
		return w.appendBaseOK(x.X)
	case *ast.StarExpr:
		return w.appendBaseOK(x.X)
	case *ast.CallExpr:
		if isBuiltin(w.info, x, "append") && len(x.Args) > 0 {
			return w.appendBaseOK(x.Args[0])
		}
	}
	return false
}

// callOnlyClosures finds locals bound to a function literal and used
// only as the function of calls.
func callOnlyClosures(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	candidates := make(map[*types.Var]*ast.Ident)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if _, isLit := unparen(as.Rhs[0]).(*ast.FuncLit); !isLit {
			return true
		}
		if id, ok := unparen(as.Lhs[0]).(*ast.Ident); ok {
			if v := identVar(info, id); v != nil {
				candidates[v] = id
			}
		}
		return true
	})
	if len(candidates) == 0 {
		return nil
	}
	callPos := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok {
				callPos[id] = true
			}
		}
		return true
	})
	out := make(map[*types.Var]bool, len(candidates))
	for v := range candidates {
		out[v] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callPos[id] {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok && candidates[v] != nil && candidates[v] != id {
			delete(out, v)
		}
		return true
	})
	return out
}

// exemptConversions marks string/[]byte conversions appearing as map
// indexes (probe or insert) or comparison operands — positions where
// the compiler elides the copy.
func exemptConversions(info *types.Info, body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	mark := func(e ast.Expr) {
		if call, ok := unparen(e).(*ast.CallExpr); ok {
			out[call] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					mark(x.Index)
				}
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				mark(x.X)
				mark(x.Y)
			}
		}
		return true
	})
	return out
}

func (w *hotWalker) walkBody(body *ast.BlockStmt, ctx hotCtx) {
	if body == nil {
		return
	}
	for _, s := range body.List {
		w.walkStmt(s, ctx)
	}
}

func (w *hotWalker) walkStmt(stmt ast.Stmt, ctx hotCtx) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		w.walkExpr(s.X, ctx)
	case *ast.DeferStmt:
		// Defer runs once per call on entry/exit, not per loop
		// iteration; the iteration cost it adds is a fixed frame, so it
		// is left to ordinary review rather than flagged.
	case *ast.GoStmt:
		w.report(s.Pos(), "spawning a goroutine allocates on a hot path")
	case *ast.ReturnStmt:
		if ctx.lastIsError && len(s.Results) > 0 && !isNilIdent(s.Results[len(s.Results)-1]) {
			return // cold error exit, mirrored by the AllocsPerRun guards
		}
		for _, r := range s.Results {
			w.walkExpr(r, ctx)
		}
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			if i < len(s.Lhs) {
				if lit, ok := unparen(rhs).(*ast.FuncLit); ok {
					if id, ok := unparen(s.Lhs[i]).(*ast.Ident); ok {
						if v := identVar(w.info, id); v != nil && w.callOnly[v] {
							// Call-only closure: not heap-allocated; body
							// still checked.
							w.walkBody(lit.Body, hotCtx{lastIsError: sigLastIsError(w.litSig(lit))})
							continue
						}
					}
				}
			}
			w.walkExpr(rhs, ctx)
		}
		for _, lhs := range s.Lhs {
			w.walkExpr(lhs, ctx)
		}
	case *ast.IncDecStmt:
		w.walkExpr(s.X, ctx)
	case *ast.SendStmt:
		w.walkExpr(s.Chan, ctx)
		w.walkExpr(s.Value, ctx)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, ctx)
		}
		w.walkExpr(s.Cond, ctx)
		branchCtx := ctx
		if condContainsCap(w.info, s.Cond) {
			branchCtx.capGuard = true
		}
		w.walkBody(s.Body, branchCtx)
		if s.Else != nil {
			w.walkStmt(s.Else, branchCtx)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, ctx)
		}
		w.walkExpr(s.Cond, ctx)
		if s.Post != nil {
			w.walkStmt(s.Post, ctx)
		}
		w.walkBody(s.Body, ctx)
	case *ast.RangeStmt:
		w.walkExpr(s.X, ctx)
		w.walkBody(s.Body, ctx)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, ctx)
		}
		w.walkExpr(s.Tag, ctx)
		w.walkClauses(s.Body, ctx)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, ctx)
		}
		w.walkClauses(s.Body, ctx)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkStmt(cc.Comm, ctx)
				}
				for _, st := range cc.Body {
					w.walkStmt(st, ctx)
				}
			}
		}
	case *ast.BlockStmt:
		w.walkBody(s, ctx)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, ctx)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, ctx)
					}
				}
			}
		}
	}
}

func (w *hotWalker) walkClauses(body *ast.BlockStmt, ctx hotCtx) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				w.walkExpr(e, ctx)
			}
			for _, st := range cc.Body {
				w.walkStmt(st, ctx)
			}
		}
	}
}

func (w *hotWalker) litSig(lit *ast.FuncLit) types.Type {
	if tv, ok := w.info.Types[lit]; ok {
		return tv.Type
	}
	return nil
}

func (w *hotWalker) walkExpr(e ast.Expr, ctx hotCtx) {
	if e == nil {
		return
	}
	switch x := unparen(e).(type) {
	case *ast.CallExpr:
		w.walkCall(x, ctx)
	case *ast.CompositeLit:
		w.checkCompositeLit(x, false)
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				w.walkExpr(kv.Value, ctx)
			} else {
				w.walkExpr(elt, ctx)
			}
		}
	case *ast.FuncLit:
		w.report(x.Pos(), "function literal allocates a closure on a hot path")
		w.walkBody(x.Body, hotCtx{lastIsError: sigLastIsError(w.litSig(x))})
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if lit, ok := unparen(x.X).(*ast.CompositeLit); ok {
				w.checkCompositeLit(lit, true)
				for _, elt := range lit.Elts {
					w.walkExpr(elt, ctx)
				}
				return
			}
		}
		w.walkExpr(x.X, ctx)
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			if tv, ok := w.info.Types[x.X]; ok {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					w.report(x.Pos(), "string concatenation allocates on a hot path")
				}
			}
		}
		w.walkExpr(x.X, ctx)
		w.walkExpr(x.Y, ctx)
	case *ast.SelectorExpr:
		w.walkExpr(x.X, ctx)
	case *ast.IndexExpr:
		w.walkExpr(x.X, ctx)
		w.walkExpr(x.Index, ctx)
	case *ast.SliceExpr:
		w.walkExpr(x.X, ctx)
		w.walkExpr(x.Low, ctx)
		w.walkExpr(x.High, ctx)
		w.walkExpr(x.Max, ctx)
	case *ast.StarExpr:
		w.walkExpr(x.X, ctx)
	case *ast.TypeAssertExpr:
		w.walkExpr(x.X, ctx)
	case *ast.KeyValueExpr:
		w.walkExpr(x.Value, ctx)
	}
}

func (w *hotWalker) checkCompositeLit(lit *ast.CompositeLit, addressed bool) {
	if addressed {
		w.report(lit.Pos(), "heap-allocated composite literal on a hot path")
		return
	}
	tv, ok := w.info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		w.report(lit.Pos(), "slice literal allocates on a hot path")
	case *types.Map:
		w.report(lit.Pos(), "map literal allocates on a hot path")
	}
	// Value struct and array literals live in registers or on the stack.
}

func (w *hotWalker) walkCall(call *ast.CallExpr, ctx hotCtx) {
	// Immediately-invoked literal: no closure value escapes.
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.walkExpr(a, ctx)
		}
		w.walkBody(lit.Body, hotCtx{lastIsError: sigLastIsError(w.litSig(lit))})
		return
	}
	// Type conversion?
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isStringBytesConversion(w.info, call) && !w.exemptConv[call] {
			w.report(call.Pos(), "string/[]byte conversion copies on a hot path "+
				"(allowed only as a map key or comparison operand)")
		}
		w.walkExpr(call.Args[0], ctx)
		return
	}
	if isBuiltin(w.info, call, "make") {
		if !ctx.capGuard {
			w.report(call.Pos(), "make allocates on a hot path (pre-size the buffer or guard the grow with a cap() check)")
		}
		for _, a := range call.Args[1:] {
			w.walkExpr(a, ctx)
		}
		return
	}
	if isBuiltin(w.info, call, "new") {
		w.report(call.Pos(), "new allocates on a hot path")
		return
	}
	if isBuiltin(w.info, call, "append") {
		if len(call.Args) > 0 && !w.appendBaseOK(call.Args[0]) {
			w.report(call.Pos(), "append to a fresh slice allocates on a hot path "+
				"(root the buffer in a reused field or parameter)")
		}
		for _, a := range call.Args {
			w.walkExpr(a, ctx)
		}
		return
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X, ctx)
	}
	w.checkIfaceArgs(call)
	for _, a := range call.Args {
		w.walkExpr(a, ctx)
	}
}

// checkIfaceArgs flags concrete arguments passed to interface
// parameters — each such call boxes the argument.
func (w *hotWalker) checkIfaceArgs(call *ast.CallExpr) {
	tv, ok := w.info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if pi >= params.Len() {
			pi = params.Len() - 1
		}
		ptype := params.At(pi).Type()
		if sig.Variadic() && pi == params.Len()-1 && call.Ellipsis == token.NoPos {
			if s, ok := ptype.(*types.Slice); ok {
				ptype = s.Elem()
			}
		}
		if !types.IsInterface(ptype) {
			continue
		}
		atv, ok := w.info.Types[arg]
		if !ok || atv.IsNil() || atv.Type == nil || types.IsInterface(atv.Type) {
			continue
		}
		w.report(arg.Pos(), "implicit conversion to interface parameter allocates on a hot path")
	}
}

func isStringBytesConversion(info *types.Info, call *ast.CallExpr) bool {
	to, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	from, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	return (isStringType(to.Type) && isByteSlice(from.Type)) ||
		(isByteSlice(to.Type) && isStringType(from.Type))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func condContainsCap(info *types.Info, cond ast.Expr) bool {
	if cond == nil {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(info, call, "cap") {
			found = true
		}
		return !found
	})
	return found
}

// declParams returns the declaration's parameter variables in signature
// order (nil for unnamed parameters).
func declParams(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

func identVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

func rhsFor(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		return as.Rhs[i]
	}
	if len(as.Rhs) == 1 {
		return as.Rhs[0]
	}
	return nil
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
