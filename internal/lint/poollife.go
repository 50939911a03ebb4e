package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PoolLifeAnalyzer checks the lifetime discipline of pooled objects: a
// value obtained from sync.Pool.Get — directly or through a module
// get-wrapper like core.Engine.getScanState — must be returned to the
// pool on every control-flow path out of the acquiring function
// (including early returns and panic exits, which is why a deferred
// release is the recommended shape), no alias of the object may escape
// into return values, struct fields, package variables, other
// containers, or channels, and no alias may be used after a
// statement-level release.
//
// Wrappers are discovered, not configured: a function whose return
// value is (a type assertion of) a Pool.Get result is a get-wrapper; a
// function that passes one of its parameters to Pool.Put (or to another
// put-wrapper) is a put-wrapper. Escape facts flow interprocedurally:
// passing an alias to a module function is an escape exactly when the
// call graph's parameter-escape summary says that parameter is
// returned, stored, or re-escaped inside the callee.
//
// Deliberate conservatism, documented here because each choice hides a
// finding class rather than inventing one:
//
//   - Only assignments `v := pool.Get().(...)` / `v := getWrapper()`
//     start tracking; a Get result consumed inside a larger expression
//     is not modeled.
//   - Calls the type-checker cannot resolve statically (function
//     values, interface methods) are assumed non-escaping, as are
//     callees outside the module.
//   - Capturing an alias in a goroutine is flagged only when nothing
//     joins it: the fan-out paths in core call Done on a local
//     WaitGroup the function Waits on before the deferred release runs
//     (joinedGoStmts). Capturing an alias in a closure that is not
//     started by `go` is not flagged: core's cuckooEval and tagPage
//     closures run synchronously, before the release. Stores and
//     returns inside closures are still checked.
var PoolLifeAnalyzer = &Analyzer{
	Name: "poollife",
	Doc: "sync.Pool objects are released on every exit path and no alias " +
		"escapes the acquiring function or outlives the release",
	Run: runPoolLife,
}

func runPoolLife(pass *Pass) {
	facts := pass.Prog.Memo("poollife", func() interface{} {
		return buildPoolFacts(pass.Prog)
	}).(*poolFacts)
	for _, v := range facts.viol {
		if v.pkg == pass.Pkg.Path {
			pass.Reportf(v.pos, "%s", v.msg)
		}
	}
}

type poolFacts struct {
	viol []gbViolation
}

const (
	poolGetName = "(*sync.Pool).Get"
	poolPutName = "(*sync.Pool).Put"
)

func buildPoolFacts(prog *Program) *poolFacts {
	cg := moduleCallGraph(prog)
	getW, putW := poolWrappers(cg)
	pe := moduleParamEscapes(prog)
	facts := &poolFacts{}
	for _, key := range cg.keys {
		pkg := cg.declPkg[key]
		pl := &poolChecker{
			pkg:  pkg,
			info: pkg.Info,
			getW: getW,
			putW: putW,
			pe:   pe,
			report: func(pos token.Pos, format string, args ...interface{}) {
				facts.viol = append(facts.viol, gbViolation{
					pkg: pkg.Path,
					pos: pos,
					msg: fmt.Sprintf(format, args...),
				})
			},
		}
		pl.checkUnit(cg.decls[key].Body)
	}
	sort.Slice(facts.viol, func(i, j int) bool { return facts.viol[i].pos < facts.viol[j].pos })
	return facts
}

// poolWrappers discovers get- and put-wrappers by fixpoint: wrapping can
// nest (a facade method forwarding to an internal wrapper), so iterate
// until no new wrapper appears. putW maps a wrapper's funcKey to the
// parameter indices it releases.
func poolWrappers(cg *callGraph) (map[string]bool, map[string]map[int]bool) {
	getW := make(map[string]bool)
	putW := make(map[string]map[int]bool)
	for {
		changed := false
		for _, key := range cg.keys {
			fd, pkg := cg.decls[key], cg.declPkg[key]
			if !getW[key] && returnsGetResult(pkg.Info, fd, getW) {
				getW[key] = true
				changed = true
			}
			params := declParams(pkg.Info, fd)
			for i, p := range params {
				if p == nil || (putW[key] != nil && putW[key][i]) {
					continue
				}
				if releasesParam(pkg.Info, fd, p, putW) {
					if putW[key] == nil {
						putW[key] = make(map[int]bool)
					}
					putW[key][i] = true
					changed = true
				}
			}
		}
		if !changed {
			return getW, putW
		}
	}
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

func returnsGetResult(info *types.Info, fd *ast.FuncDecl, getW map[string]bool) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return !found
		}
		for _, r := range ret.Results {
			e := unparen(r)
			if ta, ok := e.(*ast.TypeAssertExpr); ok {
				e = unparen(ta.X)
			}
			if call, ok := e.(*ast.CallExpr); ok && isGetCall(info, call, getW) {
				found = true
			}
		}
		return true
	})
	return found
}

func releasesParam(info *types.Info, fd *ast.FuncDecl, p *types.Var, putW map[string]map[int]bool) bool {
	set := map[*types.Var]bool{p: true}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		for _, target := range releaseTargets(info, call, putW) {
			if aliasRootedShallow(info, set, target) {
				found = true
			}
		}
		return true
	})
	return found
}

func isGetCall(info *types.Info, call *ast.CallExpr, getW map[string]bool) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	return fn.FullName() == poolGetName || getW[funcKey(fn)]
}

// releaseTargets returns the expressions a call hands back to a pool:
// Put's sole argument, or a put-wrapper's releasing arguments.
func releaseTargets(info *types.Info, call *ast.CallExpr, putW map[string]map[int]bool) []ast.Expr {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	if fn.FullName() == poolPutName && len(call.Args) > 0 {
		return call.Args[:1]
	}
	var out []ast.Expr
	for i := range putW[funcKey(fn)] {
		if i < len(call.Args) {
			out = append(out, call.Args[i])
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Alias tracking.

// aliasSetOf computes the locals reachable from root by assignment of
// selector/index/slice/deref/append chains, to a fixpoint.
func aliasSetOf(info *types.Info, body *ast.BlockStmt, root *types.Var) map[*types.Var]bool {
	set := map[*types.Var]bool{root: true}
	for round := 0; round < 8; round++ {
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
				v := identVar(info, id)
				if v == nil || set[v] {
					continue
				}
				if rhs := rhsFor(as, i); rhs != nil && aliasRootedShallow(info, set, rhs) {
					set[v] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return set
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

// aliasRootedShallow reports whether e is a selector/index/slice/deref/
// address/assert chain rooted at an alias. Calls are opaque — their
// results are fresh values — except append, which preserves its base.
func aliasRootedShallow(info *types.Info, set map[*types.Var]bool, e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok {
			v, ok = info.Defs[x].(*types.Var)
		}
		return ok && set[v]
	case *ast.SelectorExpr:
		return aliasRootedShallow(info, set, x.X)
	case *ast.IndexExpr:
		return aliasRootedShallow(info, set, x.X)
	case *ast.SliceExpr:
		return aliasRootedShallow(info, set, x.X)
	case *ast.StarExpr:
		return aliasRootedShallow(info, set, x.X)
	case *ast.TypeAssertExpr:
		return aliasRootedShallow(info, set, x.X)
	case *ast.UnaryExpr:
		return x.Op == token.AND && aliasRootedShallow(info, set, x.X)
	case *ast.CallExpr:
		if isBuiltin(info, x, "append") && len(x.Args) > 0 {
			return aliasRootedShallow(info, set, x.Args[0])
		}
	}
	return false
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// ---------------------------------------------------------------------------
// Escape scanning (shared by the acquire checks and the parameter
// summaries).

type escapeSink struct {
	pos  token.Pos
	what string
}

// scanEscapes finds every way an alias of the tracked set leaves the
// body: returned, stored outside the object, sent on a channel,
// appended into a foreign slice, placed in a composite literal,
// captured by a goroutine nothing joins, or passed to a callee
// parameter the summary marks escaping.
func scanEscapes(info *types.Info, body *ast.BlockStmt, set map[*types.Var]bool, pe map[string][]bool) []escapeSink {
	var sinks []escapeSink
	add := func(pos token.Pos, what string) {
		sinks = append(sinks, escapeSink{pos: pos, what: what})
	}
	var joined map[*ast.GoStmt]bool // built on the first go statement
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if aliasRootedShallow(info, set, r) {
					add(r.Pos(), "returned from the function")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				rhs := rhsFor(x, i)
				if rhs == nil || !aliasRootedShallow(info, set, rhs) {
					continue
				}
				switch l := unparen(lhs).(type) {
				case *ast.Ident:
					if v := identVar(info, l); isPkgLevel(v) {
						add(rhs.Pos(), "stored in package-level variable "+l.Name)
					}
				case *ast.SelectorExpr:
					if !aliasRootedShallow(info, set, l.X) {
						add(rhs.Pos(), "stored in a struct field")
					}
				case *ast.IndexExpr:
					if !aliasRootedShallow(info, set, l.X) {
						add(rhs.Pos(), "stored in a map or slice element")
					}
				}
			}
		case *ast.SendStmt:
			if aliasRootedShallow(info, set, x.Value) {
				add(x.Value.Pos(), "sent on a channel")
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if aliasRootedShallow(info, set, el) {
					add(el.Pos(), "placed in a composite literal")
				}
			}
		case *ast.GoStmt:
			if joined == nil {
				joined = joinedGoStmts(info, body)
			}
			if !joined[x] && mentionsAlias(info, x.Call, set) {
				add(x.Pos(), "captured by a goroutine nothing joins")
			}
		case *ast.CallExpr:
			scanCallEscapes(info, x, set, pe, add)
		}
		return true
	})
	return sinks
}

// mentionsAlias reports whether any identifier under n reads an alias.
func mentionsAlias(info *types.Info, n ast.Node, set map[*types.Var]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v := identVar(info, id); v != nil && set[v] {
				found = true
			}
		}
		return !found
	})
	return found
}

func scanCallEscapes(info *types.Info, call *ast.CallExpr, set map[*types.Var]bool, pe map[string][]bool, add func(token.Pos, string)) {
	// append(other, alias) stores the alias header into another slice;
	// append(other, alias...) copies elements and is the sanctioned
	// copy-out idiom.
	if isBuiltin(info, call, "append") {
		if call.Ellipsis == token.NoPos {
			for _, arg := range call.Args[1:] {
				if aliasRootedShallow(info, set, arg) && !aliasRootedShallow(info, set, call.Args[0]) {
					add(arg.Pos(), "appended into another slice")
				}
			}
		}
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	for i, arg := range call.Args {
		if aliasRootedShallow(info, set, arg) && argEscapes(pe, funcKey(fn), i) {
			add(arg.Pos(), fmt.Sprintf("passed to %s, whose parameter escapes", fn.Name()))
		}
	}
}

// argEscapes reports whether argument i of a call to the function keyed
// key escapes per the summary. Arguments past the parameter list clamp
// to the variadic tail; a function outside the module has no summary
// and proves no escape.
func argEscapes(pe map[string][]bool, key string, i int) bool {
	esc := pe[key]
	if len(esc) == 0 {
		return false
	}
	if i >= len(esc) {
		i = len(esc) - 1
	}
	return esc[i]
}

func isPkgLevel(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// moduleParamEscapes returns the program's parameter-escape summary,
// building it on first use: poollife and shardiso read the same one.
func moduleParamEscapes(prog *Program) map[string][]bool {
	return prog.Memo("paramescape", func() interface{} {
		return paramEscapeFixpoint(moduleCallGraph(prog))
	}).(map[string][]bool)
}

// paramEscapeFixpoint computes, for every declared function, which
// parameters escape by any of scanEscapes' sinks. Bottom-up to a
// fixpoint so facts chase through helper chains: if store(x) stores its
// argument and keep(x) just calls store(x), keep's parameter escapes.
// Receivers are not summarized — calling a method on a value is use,
// not escape.
func paramEscapeFixpoint(cg *callGraph) map[string][]bool {
	pe := make(map[string][]bool, len(cg.keys))
	params := make(map[string][]*types.Var, len(cg.keys))
	for _, key := range cg.keys {
		params[key] = declParams(cg.declPkg[key].Info, cg.decls[key])
		pe[key] = make([]bool, len(params[key]))
	}
	for round := 0; round < 16; round++ {
		changed := false
		for _, key := range cg.keys {
			fd, pkg := cg.decls[key], cg.declPkg[key]
			for i, p := range params[key] {
				if p == nil || pe[key][i] {
					continue
				}
				set := aliasSetOf(pkg.Info, fd.Body, p)
				if len(scanEscapes(pkg.Info, fd.Body, set, pe)) > 0 {
					pe[key][i] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return pe
}

// ---------------------------------------------------------------------------
// Per-function checking.

type poolChecker struct {
	pkg    *Package
	info   *types.Info
	getW   map[string]bool
	putW   map[string]map[int]bool
	pe     map[string][]bool
	report func(token.Pos, string, ...interface{})
}

// checkUnit analyzes one function or function-literal body. Literal
// bodies are separate units because the CFG treats them as opaque.
func (pl *poolChecker) checkUnit(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	type acquire struct {
		stmt *ast.AssignStmt
		v    *types.Var
	}
	var acquires []acquire
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, fl)
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		e := unparen(as.Rhs[0])
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			e = unparen(ta.X)
		}
		call, ok := e.(*ast.CallExpr)
		if !ok || !isGetCall(pl.info, call, pl.getW) {
			return true
		}
		id, ok := unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if v := identVar(pl.info, id); v != nil {
			acquires = append(acquires, acquire{stmt: as, v: v})
		}
		return true
	})
	var g *funcCFG
	for _, a := range acquires {
		if g == nil {
			g = buildCFG(body)
		}
		pl.checkAcquire(g, body, a.stmt, a.v)
	}
	for _, fl := range lits {
		pl.checkUnit(fl.Body)
	}
}

func (pl *poolChecker) checkAcquire(g *funcCFG, body *ast.BlockStmt, acq *ast.AssignStmt, v *types.Var) {
	set := aliasSetOf(pl.info, body, v)

	// Locate the acquire and every release in the CFG. Deferred releases
	// close paths from their registration point (after `defer put(x)`
	// runs, every exit — return or panic — releases); statement releases
	// additionally bound the alias's lifetime.
	type nodeRef struct {
		b   *cfgBlock
		idx int
	}
	var acqRef *nodeRef
	closers := make(map[*cfgBlock]map[int]bool)
	var stmtReleases []nodeRef
	for _, b := range g.blocks {
		for i, n := range b.nodes {
			if n == ast.Node(acq) {
				acqRef = &nodeRef{b: b, idx: i}
			}
			isDefer := false
			target := n
			if d, ok := n.(*ast.DeferStmt); ok {
				isDefer = true
				target = d.Call
			}
			if !pl.nodeReleases(target, set) {
				continue
			}
			if closers[b] == nil {
				closers[b] = make(map[int]bool)
			}
			closers[b][i] = true
			if !isDefer {
				stmtReleases = append(stmtReleases, nodeRef{b: b, idx: i})
			}
		}
	}
	if acqRef == nil {
		return // acquire not in this unit's CFG (nested oddity); nothing provable
	}
	if len(closers) == 0 {
		pl.report(acq.Pos(), "pooled object %s is never returned to the pool", v.Name())
		return
	}

	// Path check: from just after the acquire, can exit be reached
	// without passing a release?
	leaked := false
	seen := make(map[*cfgBlock]bool)
	var walk func(b *cfgBlock, from int)
	walk = func(b *cfgBlock, from int) {
		if leaked {
			return
		}
		if from == 0 {
			if seen[b] {
				return
			}
			seen[b] = true
		}
		for i := from; i < len(b.nodes); i++ {
			if closers[b][i] {
				return
			}
		}
		if b == g.exit {
			leaked = true
			return
		}
		for _, s := range b.succs {
			walk(s, 0)
		}
	}
	walk(acqRef.b, acqRef.idx+1)
	if leaked {
		pl.report(acq.Pos(),
			"pooled object %s is not returned to the pool on every path out of the function (prefer `defer`)",
			v.Name())
	}

	// Escapes: any alias leaving the function outlives the release.
	for _, s := range scanEscapes(pl.info, body, set, pl.pe) {
		pl.report(s.pos, "alias of pooled object %s escapes: %s", v.Name(), s.what)
	}

	// Use after a statement-level release.
	reported := make(map[token.Pos]bool)
	for _, rel := range stmtReleases {
		seenUAR := make(map[*cfgBlock]bool)
		var scan func(b *cfgBlock, from int)
		scan = func(b *cfgBlock, from int) {
			if from == 0 {
				if seenUAR[b] {
					return
				}
				seenUAR[b] = true
			}
			for i := from; i < len(b.nodes); i++ {
				if b.nodes[i] == ast.Node(acq) {
					return // re-acquired; later uses are fresh
				}
				if use := pl.aliasUse(b.nodes[i], set); use != nil && !reported[use.Pos()] {
					reported[use.Pos()] = true
					pl.report(use.Pos(), "pooled object %s used after being returned to the pool", v.Name())
				}
			}
			for _, s := range b.succs {
				scan(s, 0)
			}
		}
		scan(rel.b, rel.idx+1)
	}
}

// nodeReleases reports whether the node contains a release call whose
// target is an alias of the tracked object (not looking into nested
// function literals).
func (pl *poolChecker) nodeReleases(n ast.Node, set map[*types.Var]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		for _, t := range releaseTargets(pl.info, call, pl.putW) {
			if aliasRootedShallow(pl.info, set, t) {
				found = true
			}
		}
		return true
	})
	return found
}

// aliasUse returns an identifier in n that reads an alias, skipping
// release calls themselves and nested literals.
func (pl *poolChecker) aliasUse(n ast.Node, set map[*types.Var]bool) *ast.Ident {
	var use *ast.Ident
	ast.Inspect(n, func(m ast.Node) bool {
		if use != nil {
			return false
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if len(releaseTargets(pl.info, x, pl.putW)) > 0 {
				return false
			}
		case *ast.Ident:
			if v, ok := pl.info.Uses[x].(*types.Var); ok && set[v] {
				use = x
			}
		}
		return true
	})
	return use
}

// joinedGoStmts finds go statements bounded by the scatter-gather shape:
// the goroutine literal calls Done on a local sync.WaitGroup that the
// surrounding function also Waits on.
func joinedGoStmts(info *types.Info, body *ast.BlockStmt) map[*ast.GoStmt]bool {
	// WaitGroups this body waits on.
	waited := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if v := waitGroupVar(info, sel.X); v != nil {
			waited[v] = true
		}
		return true
	})
	out := make(map[*ast.GoStmt]bool)
	if len(waited) == 0 {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" {
				return true
			}
			if v := waitGroupVar(info, sel.X); v != nil && waited[v] {
				out[g] = true
			}
			return true
		})
		return true
	})
	return out
}

// waitGroupVar resolves e to a sync.WaitGroup-typed variable, or nil.
func waitGroupVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v := identVar(info, id)
	if v == nil {
		return nil
	}
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
		return v
	}
	return nil
}
