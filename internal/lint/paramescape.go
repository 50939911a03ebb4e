package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Alias tracking, which hotalloc and shardiso share, and the
// parameter-escape summary shardiso reads, with the goroutine-join test
// the summary uses.

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
// Escape scanning.

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
// building it once per program.
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
