package lint

// This file is the interprocedural layer under lockorder and hotalloc: a
// whole-module static call graph with a function-declaration index.
// Dispatch is static only — direct calls and method calls resolved by
// go/types (info.Uses[sel.Sel]); calls through function values,
// interfaces, or reflection produce no edges. lockorder chases its
// acquisition summaries over these edges, and hotalloc restricts itself
// to same-package reachability, so a missing edge weakens a proof rather
// than silencing a real finding class.

import (
	"go/ast"
	"go/types"
	"sort"
)

// callGraph is the module-wide static call graph, built once per Program.
type callGraph struct {
	// decls/declPkg index every function declaration with a body across
	// the non-GOROOT packages, by funcKey (types.Func.FullName).
	decls   map[string]*ast.FuncDecl
	declPkg map[string]*Package
	// keys is decls' key set in sorted order, for deterministic iteration.
	keys []string
	// callees lists each declaration's static call targets in the module,
	// by funcKey, once per call site.
	callees map[string][]string
}

// funcKey identifies a declared function across packages.
func funcKey(fn *types.Func) string { return fn.FullName() }

// moduleCallGraph returns the program's call graph, building it on first
// use.
func moduleCallGraph(prog *Program) *callGraph {
	return prog.Memo("callgraph", func() interface{} {
		return buildCallGraph(prog)
	}).(*callGraph)
}

func buildCallGraph(prog *Program) *callGraph {
	g := &callGraph{
		decls:   make(map[string]*ast.FuncDecl),
		declPkg: make(map[string]*Package),
		callees: make(map[string][]string),
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
			g.callees[key] = append(g.callees[key], callee)
			return true
		})
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
		for _, callee := range g.callees[key] {
			if g.declPkg[callee] == g.declPkg[key] {
				visit(callee, root)
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
