package lint

// This file is the alias/escape layer shardiso uses: a lightweight
// intraprocedural escape summary with *kinds*, computed bottom-up over
// the v3 call graph the same way poollife's boolean parameter-escape
// summary is — but where poollife only needs "does any alias leave the
// function", shardiso reports *how*: a value returned to the caller is a
// different finding from one captured by a goroutine.
//
// The kinds form a small bitmask lattice (finite height, so the
// bottom-up fixpoint terminates):
//
//	escReturn     returned to the caller
//	escStore      stored into a struct field or a package-level variable
//	escContainer  inserted into a map/slice element, appended, sent on a
//	              channel, or placed in a composite literal
//	escGoroutine  referenced inside a `go` statement (argument or capture)
//
// Every kind is a positively-proven escape. A call the graph cannot see
// through (stdlib, indirect, interface dispatch, conversions) adds
// nothing: shardiso reports only escapes it can prove, the same
// conservatism split as callgraph.go documents.
//
// Alias tracking reuses poollife's machinery (aliasSetOf,
// aliasRootedShallow): plain-assignment chains within one body, with
// calls opaque except append. Nested function literals are walked in
// place — a return inside a closure is counted as a return escape, which
// over-approximates (the closure's result may never leave the outer
// function) but never under-approximates.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// escapeKind is a bitmask of the ways a value leaves a function.
type escapeKind uint8

const (
	escReturn escapeKind = 1 << iota
	escStore
	escContainer
	escGoroutine
)

// escAll is the lattice top: every kind at once.
const escAll = escReturn | escStore | escContainer | escGoroutine

func (k escapeKind) String() string {
	if k == 0 {
		return "none"
	}
	var parts []string
	for _, e := range []struct {
		bit  escapeKind
		name string
	}{
		{escReturn, "return"},
		{escStore, "store"},
		{escContainer, "container"},
		{escGoroutine, "goroutine"},
	} {
		if k&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "|")
}

// escapeFacts is the module-wide summary: per declared function
// (funcKey), the escape mask of each declared parameter, in declaration
// order (receivers are not summarized — calling a method on a value is
// use, not escape; what its receiver does internally is the callee
// package's contract).
type escapeFacts struct {
	params map[string][]escapeKind
}

// argEscape returns the summary mask for one call argument, handling the
// variadic tail like poollife's scanner does.
func (ef *escapeFacts) argEscape(key string, arg int) escapeKind {
	return argEscapeIn(ef.params, key, arg)
}

// moduleEscapes returns the program's escape summary, building it on
// first use.
func moduleEscapes(prog *Program) *escapeFacts {
	return prog.Memo("escape", func() interface{} {
		return &escapeFacts{params: escapeFixpoint(moduleCallGraph(prog))}
	}).(*escapeFacts)
}

// escapeFixpoint computes every declared function's per-parameter escape
// mask, bottom-up to a fixpoint so kinds chase through helper chains:
// if store(x) stores its argument and keep(x) just calls store(x), a
// value passed to keep escapes by store.
func escapeFixpoint(cg *callGraph) map[string][]escapeKind {
	ef := make(map[string][]escapeKind, len(cg.keys))
	params := make(map[string][]*types.Var, len(cg.keys))
	for _, key := range cg.keys {
		params[key] = declParams(cg.declPkg[key].Info, cg.decls[key])
		ef[key] = make([]escapeKind, len(params[key]))
	}
	for round := 0; round < 32; round++ {
		changed := false
		for _, key := range cg.keys {
			fd, pkg := cg.decls[key], cg.declPkg[key]
			for i, p := range params[key] {
				if p == nil || ef[key][i] == escAll {
					continue
				}
				set := aliasSetOf(pkg.Info, fd.Body, p)
				k := scanEscapeKinds(pkg.Info, fd.Body, set, ef)
				if k&^ef[key][i] != 0 {
					ef[key][i] |= k
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return ef
}

// scanEscapeKinds reports every kind by which an alias of the tracked set
// leaves the body. It is the kinded sibling of poollife's scanEscapes and
// shares its shallow-rooting rules.
func scanEscapeKinds(info *types.Info, body *ast.BlockStmt, set map[*types.Var]bool, ef map[string][]escapeKind) escapeKind {
	var mask escapeKind
	rooted := func(e ast.Expr) bool { return aliasRootedShallow(info, set, e) }

	// Goroutine captures first: any alias referenced anywhere inside a
	// `go` statement — as an argument or captured by the literal's body —
	// escapes to the goroutine, whatever else happens to it there.
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		ast.Inspect(g.Call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v := identVar(info, id); v != nil && set[v] {
					mask |= escGoroutine
				}
			}
			return true
		})
		return true
	})

	// Non-go function literals outside call position are closure values
	// that may outlive the frame: capturing an alias stores it.
	for _, lit := range uncalledFuncLits(body) {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v := identVar(info, id); v != nil && set[v] {
					mask |= escStore
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if rooted(r) {
					mask |= escReturn
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				rhs := rhsFor(x, i)
				if rhs == nil || !rooted(rhs) {
					continue
				}
				switch l := unparen(lhs).(type) {
				case *ast.Ident:
					// Local-to-local assignment is alias propagation
					// (aliasSetOf's job); only package-level stores escape.
					if v := identVar(info, l); isPkgLevel(v) {
						mask |= escStore
					}
				case *ast.SelectorExpr:
					if !rooted(l.X) {
						mask |= escStore
					}
				case *ast.IndexExpr:
					if !rooted(l.X) {
						mask |= escContainer
					}
				}
			}
		case *ast.SendStmt:
			if rooted(x.Value) {
				mask |= escContainer
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if rooted(el) {
					mask |= escContainer
				}
			}
		case *ast.CallExpr:
			mask |= callEscapeKinds(info, x, set, ef)
		}
		return true
	})
	return mask
}

// callEscapeKinds classifies one call's effect on the tracked aliases.
// Builtins other than append, conversions and calls outside the module
// prove no escape.
func callEscapeKinds(info *types.Info, call *ast.CallExpr, set map[*types.Var]bool, ef map[string][]escapeKind) escapeKind {
	rooted := func(e ast.Expr) bool { return aliasRootedShallow(info, set, e) }
	var mask escapeKind

	// append(other, alias) stores the alias header into another slice;
	// append(other, alias...) copies elements out (the sanctioned idiom).
	if isBuiltin(info, call, "append") {
		if call.Ellipsis == token.NoPos {
			for _, arg := range call.Args[1:] {
				if rooted(arg) && !rooted(call.Args[0]) {
					mask |= escContainer
				}
			}
		}
		return mask
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return 0
	}
	key := funcKey(fn)
	if _, inModule := ef[key]; !inModule {
		return 0
	}
	for i, arg := range call.Args {
		if rooted(arg) {
			mask |= argEscapeIn(ef, key, i)
		}
	}
	return mask
}

// argEscapeIn is escapeFacts.argEscape over the raw fixpoint map (used
// while the summary is still being built), clamping past-the-end
// arguments to the variadic tail.
func argEscapeIn(ef map[string][]escapeKind, key string, arg int) escapeKind {
	ks := ef[key]
	if len(ks) == 0 {
		return 0
	}
	if arg >= len(ks) {
		arg = len(ks) - 1
	}
	return ks[arg]
}

// uncalledFuncLits returns the function literals in body that are not
// the function position of a call and not launched by a go statement:
// closure values whose lifetime the frame does not bound.
func uncalledFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	invoked := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if lit, ok := unparen(x.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
		case *ast.GoStmt:
			if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
		case *ast.DeferStmt:
			if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
		}
		return true
	})
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !invoked[lit] {
			out = append(out, lit)
		}
		return true
	})
	return out
}
