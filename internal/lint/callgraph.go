package lint

// This file is the interprocedural layer under guardedby, hotalloc and
// shardiso: a whole-module static call graph with the
// function-declaration index the analyzers share. Dispatch is static
// only — direct calls and method calls resolved by go/types
// (info.Uses[sel.Sel]); calls through function values, interfaces, or
// reflection produce no edges. That is the same deliberate conservatism
// as lockorder's summary chase: the analyzers built on top either treat
// value-captured functions as analysis roots (guardedby) or restrict
// themselves to same-package reachability (hotalloc), so a missing edge
// weakens a proof rather than silencing a real finding class.

import (
	"go/ast"
	"go/types"
	"sort"
)

// callSite is one static call edge with its syntax.
type callSite struct {
	caller string // funcKey of the enclosing declaration
	callee string // funcKey of the resolved target
	call   *ast.CallExpr
}

// callGraph is the module-wide static call graph, built once per Program.
type callGraph struct {
	// decls/declPkg index every function declaration with a body across
	// the non-GOROOT packages, by funcKey (types.Func.FullName).
	decls   map[string]*ast.FuncDecl
	declPkg map[string]*Package
	// keys is decls' key set in sorted order, for deterministic iteration.
	keys []string
	// callees/callers are the edge lists, grouped by either endpoint.
	callees map[string][]callSite
	callers map[string][]callSite
	// valueUsed marks declared functions referenced outside call position
	// (assigned, passed, stored): they can be invoked from contexts the
	// graph cannot see, so context-sensitive analyses must treat them as
	// entry points with no assumptions.
	valueUsed map[string]bool
}

// moduleCallGraph returns the program's call graph, building it on first
// use.
func moduleCallGraph(prog *Program) *callGraph {
	return prog.Memo("callgraph", func() interface{} {
		return buildCallGraph(prog)
	}).(*callGraph)
}

func buildCallGraph(prog *Program) *callGraph {
	g := &callGraph{
		decls:     make(map[string]*ast.FuncDecl),
		declPkg:   make(map[string]*Package),
		callees:   make(map[string][]callSite),
		callers:   make(map[string][]callSite),
		valueUsed: make(map[string]bool),
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					key := funcKey(fn)
					g.decls[key] = fd
					g.declPkg[key] = pkg
				}
			}
		}
	}
	for key := range g.decls {
		g.keys = append(g.keys, key)
	}
	sort.Strings(g.keys)

	for _, key := range g.keys {
		fd, pkg := g.decls[key], g.declPkg[key]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg.Info, call)
			if fn == nil {
				return true
			}
			callee := funcKey(fn)
			if _, inModule := g.decls[callee]; !inModule {
				return true
			}
			s := callSite{caller: key, callee: callee, call: call}
			g.callees[key] = append(g.callees[key], s)
			g.callers[callee] = append(g.callers[callee], s)
			return true
		})
	}

	// Value uses: any identifier resolving to a declared function that is
	// not the function position of a call. Method values, function-typed
	// struct fields (sync.Pool.New), sort.Slice callbacks all land here.
	for _, pkg := range prog.Pkgs {
		if pkg.Standard {
			continue
		}
		callPos := make(map[*ast.Ident]bool)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := unparen(call.Fun).(type) {
				case *ast.Ident:
					callPos[fun] = true
				case *ast.SelectorExpr:
					callPos[fun.Sel] = true
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || callPos[id] {
					return true
				}
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
					key := funcKey(fn)
					if _, inModule := g.decls[key]; inModule {
						g.valueUsed[key] = true
					}
				}
				return true
			})
		}
	}
	return g
}

// samePackageReachable returns every declared function reachable from the
// roots over edges that stay inside the root's package, mapped to the
// root it was first reached from. Analyses with a facade-boundary
// contract (hotalloc) use this: a cross-package call is the callee
// package's responsibility.
func (g *callGraph) samePackageReachable(roots []string) map[string]string {
	out := make(map[string]string)
	var visit func(key, root string)
	visit = func(key, root string) {
		if _, seen := out[key]; seen {
			return
		}
		out[key] = root
		for _, s := range g.callees[key] {
			if g.declPkg[s.callee] == g.declPkg[key] {
				visit(s.callee, root)
			}
		}
	}
	for _, r := range roots {
		if _, ok := g.decls[r]; ok {
			visit(r, r)
		}
	}
	return out
}
