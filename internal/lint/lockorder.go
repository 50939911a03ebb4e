package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// LockOrderAnalyzer builds a static mutex-acquisition graph across the
// whole program and rejects cycles. PR 1 fixed a real deadlock of exactly
// this shape by luck rather than tooling: storage.Device.Stats called
// NumPages (which takes Device.mu) while holding Device.statsMu, while
// Write acquires Device.mu and then statsMu — a cycle between the two
// locks that only bites when a metrics scrape races an ingest.
//
// The analysis is intentionally simple and conservative:
//
//   - A lock is identified by its declaration site: a named struct field
//     of type sync.Mutex/sync.RWMutex ("pkg.Type.field") or a package-
//     level mutex variable ("pkg.var"). Function-local mutexes cannot
//     participate in cross-function cycles and are ignored.
//   - Within a function, statements are walked in order; X.Lock()/RLock()
//     pushes X onto the held set and records an edge from every
//     currently-held lock to X; X.Unlock()/RUnlock() as a statement pops
//     it; defer X.Unlock() holds X to function end. Nested blocks see a
//     copy of the held set (an early unlock inside a branch does not leak
//     out).
//   - Holding locks across a call to a statically-resolved function adds
//     edges to every lock that function (transitively) acquires, which is
//     what catches the Stats/NumPages inversion.
//
// Any cycle in the resulting graph is reported on every edge that
// participates in it, in the package that recorded the edge.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "the static mutex-acquisition graph across core/storage/sched " +
		"must be acyclic (lock-order inversions deadlock under load)",
	Run: runLockOrder,
}

// lockEdge is one observed "acquired while holding" pair.
type lockEdge struct {
	from, to string
	pos      ast.Node
	pkg      string
	// readOnly marks edges where both the held and the acquired side were
	// read acquisitions (RLock): those cannot deadlock against each other
	// alone, but still participate in cycles with writers, so they are
	// kept in the graph and only skipped for self-edges.
	readOnly bool
}

// lockGraph is the program-wide analysis result, built once per Program.
type lockGraph struct {
	edges []lockEdge
}

func runLockOrder(pass *Pass) {
	g := pass.Prog.Memo("lockorder", func() interface{} {
		return buildLockGraph(pass.Prog)
	}).(*lockGraph)

	inCycle := cyclicEdges(g.edges)
	for i, e := range g.edges {
		if !inCycle[i] || e.pkg != pass.Pkg.Path {
			continue
		}
		pass.Reportf(e.pos.Pos(),
			"lock-order cycle: %s acquired while holding %s (the reverse order is also taken; see LINT.md on lock ordering)",
			e.to, e.from)
	}
}

// isMutexType classifies sync.Mutex / sync.RWMutex by their declaration
// in the real sync package (fixtures import the real sync too, so fixture
// locks are tracked the same way as the module's).
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockIdent names the lock a receiver expression denotes, or "" when the
// expression is not a trackable lock (locals, map entries, etc.).
func lockIdent(info *types.Info, recv ast.Expr) string {
	switch x := unparen(recv).(type) {
	case *ast.SelectorExpr:
		// Field selector: name it by the declaring struct type.
		if sel, ok := info.Selections[x]; ok {
			if field, ok := sel.Obj().(*types.Var); ok && field.IsField() {
				owner := sel.Recv()
				for {
					if p, ok := owner.(*types.Pointer); ok {
						owner = p.Elem()
						continue
					}
					break
				}
				if named, ok := owner.(*types.Named); ok && named.Obj().Pkg() != nil {
					return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
				}
			}
		}
		// Package-qualified variable: pkg.Mu.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// lockCall decodes a statically-identifiable mutex method call.
func lockCall(info *types.Info, call *ast.CallExpr) (lock string, method string, ok bool) {
	sel, selOk := unparen(call.Fun).(*ast.SelectorExpr)
	if !selOk {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	tv, tvOk := info.Types[sel.X]
	if !tvOk {
		return "", "", false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if !isMutexType(t) {
		return "", "", false
	}
	id := lockIdent(info, sel.X)
	if id == "" {
		return "", "", false
	}
	return id, sel.Sel.Name, true
}

// heldLock is one entry of the held set during the body walk.
type heldLock struct {
	id   string
	read bool
}

// buildLockGraph walks every non-GOROOT package in the program.
func buildLockGraph(prog *Program) *lockGraph {
	cg := moduleCallGraph(prog)

	// Pass 1: transitive "locks acquired somewhere inside" summary per
	// function, by fixpoint over the static call graph. The value records
	// whether any acquisition is a write lock (write dominates read when
	// merging, since a write acquisition is the stricter fact).
	acquires := make(map[string]map[string]bool)
	for _, key := range cg.keys {
		acquires[key] = directAcquires(cg.declPkg[key].Info, cg.decls[key])
	}
	for changed := true; changed; {
		changed = false
		for _, key := range cg.keys {
			for _, callee := range cg.callees[key] {
				for id, write := range acquires[callee] {
					if have, ok := acquires[key][id]; !ok || (write && !have) {
						acquires[key][id] = have || write
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: ordered walk recording edges.
	g := &lockGraph{}
	for _, key := range cg.keys {
		pkg := cg.declPkg[key]
		w := &lockWalker{info: pkg.Info, pkg: pkg.Path, acquires: acquires, g: g}
		w.walkBody(cg.decls[key].Body, nil)
	}
	sort.Slice(g.edges, func(i, j int) bool {
		a, b := g.edges[i], g.edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.pos.Pos() < b.pos.Pos()
	})
	return g
}

// directAcquires collects the locks a function acquires in its own body;
// the value marks write acquisitions.
func directAcquires(info *types.Info, fd *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, method, ok := lockCall(info, call); ok {
			switch method {
			case "Lock", "TryLock":
				out[id] = true
			case "RLock", "TryRLock":
				if !out[id] {
					out[id] = false
				}
			}
		}
		return true
	})
	return out
}

// lockWalker performs the ordered intra-function walk.
type lockWalker struct {
	info     *types.Info
	pkg      string
	acquires map[string]map[string]bool
	g        *lockGraph
}

func (w *lockWalker) addEdges(held []heldLock, to string, toRead bool, at ast.Node) {
	for _, h := range held {
		if h.id == to && h.read && toRead {
			// Recursive read-lock: deadlocks only via a pending writer,
			// which the write-side edges already represent.
			continue
		}
		w.g.edges = append(w.g.edges, lockEdge{
			from: h.id, to: to, pos: at, pkg: w.pkg,
			readOnly: h.read && toRead,
		})
	}
}

// walkBody walks stmts in order with the held set; nested blocks receive a
// copy. It returns the held set at the end of the straight-line path.
func (w *lockWalker) walkBody(body *ast.BlockStmt, held []heldLock) []heldLock {
	if body == nil {
		return held
	}
	for _, stmt := range body.List {
		held = w.walkStmt(stmt, held)
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held []heldLock) []heldLock {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return w.walkExpr(s.X, held)
	case *ast.DeferStmt:
		// defer X.Unlock() pins X as held to function end: no change.
		// Any other deferred call still contributes edges against the
		// locks held *now* (a conservative approximation of "held at
		// exit").
		if _, _, isLockOp := lockCall(w.info, s.Call); isLockOp {
			return held
		}
		w.callEdges(s.Call, held)
		return held
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			held = w.walkExprTree(rhs, held)
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = w.walkExprTree(r, held)
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		held = w.walkExprTree(s.Cond, held)
		w.walkBody(s.Body, copyHeld(held))
		if s.Else != nil {
			w.walkStmt(s.Else, copyHeld(held))
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.walkBody(s.Body, copyHeld(held))
		return held
	case *ast.RangeStmt:
		held = w.walkExprTree(s.X, held)
		w.walkBody(s.Body, copyHeld(held))
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := copyHeld(held)
				for _, st := range cc.Body {
					h = w.walkStmt(st, h)
				}
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h := copyHeld(held)
				for _, st := range cc.Body {
					h = w.walkStmt(st, h)
				}
			}
		}
		return held
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				h := copyHeld(held)
				for _, st := range cc.Body {
					h = w.walkStmt(st, h)
				}
			}
		}
		return held
	case *ast.BlockStmt:
		w.walkBody(s, copyHeld(held))
		return held
	case *ast.GoStmt:
		// A goroutine starts with an empty held set.
		if fl, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkBody(fl.Body, nil)
		}
		return held
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	default:
		return held
	}
}

// walkExprTree scans an arbitrary expression for calls (including function
// literals invoked later — walked with the current held set, which is the
// conservative choice for sync.Once-style callbacks registered under a
// lock).
func (w *lockWalker) walkExprTree(e ast.Expr, held []heldLock) []heldLock {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			held = w.walkExpr(call, held)
			return false
		}
		return true
	})
	return held
}

// walkExpr handles one (possibly lock-related) call expression.
func (w *lockWalker) walkExpr(e ast.Expr, held []heldLock) []heldLock {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return held
	}
	// Arguments may themselves contain calls.
	for _, arg := range call.Args {
		held = w.walkExprTree(arg, held)
	}
	if id, method, ok := lockCall(w.info, call); ok {
		switch method {
		case "Lock", "TryLock":
			w.addEdges(held, id, false, call)
			return append(held, heldLock{id: id})
		case "RLock", "TryRLock":
			w.addEdges(held, id, true, call)
			return append(held, heldLock{id: id, read: true})
		case "Unlock", "RUnlock":
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].id == id {
					return append(copyHeld(held[:i]), held[i+1:]...)
				}
			}
			return held
		}
	}
	w.callEdges(call, held)
	return held
}

// callEdges adds held→summary edges for a resolved call.
func (w *lockWalker) callEdges(call *ast.CallExpr, held []heldLock) {
	if len(held) == 0 {
		return
	}
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return
	}
	for id, write := range w.acquires[funcKey(fn)] {
		w.addEdges(held, id, !write, call)
	}
}

// cyclicEdges marks every edge lying on some cycle: edge u→v is cyclic iff
// v can reach u.
func cyclicEdges(edges []lockEdge) map[int]bool {
	adj := make(map[string]map[string]bool)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
	}
	reach := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			for next := range adj[n] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	out := make(map[int]bool)
	for i, e := range edges {
		if e.from == e.to {
			if !e.readOnly {
				out[i] = true // recursive acquisition of a non-reentrant lock
			}
			continue
		}
		if reach(e.to, e.from) {
			out[i] = true
		}
	}
	return out
}
