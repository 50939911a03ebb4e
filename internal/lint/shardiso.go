package lint

// shardiso: shard isolation across the router boundary. Fields annotated
// `// shard-owned` hold state that belongs to exactly one shard (its
// engine, scheduler pool, page cache, obs registry); COPR-style sharded
// ingestion is correct only while nothing outside the per-shard call
// retains a reference into that state. The analyzer tracks every
// expression rooted at a read of a shard-owned field (plus the locals it
// is assigned into, to a fixpoint) and reports when such a value:
//
//   - is returned across the boundary;
//   - is stored into a package-level variable or into a field that is
//     not itself shard-owned;
//   - is sent on a channel or inserted into a container that is not
//     shard-rooted;
//   - is captured by a goroutine that outlives the per-shard call — a
//     goroutine is provably bounded when its literal calls Done on a
//     local sync.WaitGroup the same function Waits on (the
//     scatter-gather join shape), and unbounded otherwise;
//   - is passed to a module function whose parameter escapes, per the
//     v4 escape summaries (escape.go). Unknown callees do not report:
//     shardiso only flags escapes it can prove, so a missing call-graph
//     edge weakens the proof rather than inventing a finding.
//
// Method calls on shard-owned values are use, not escape — that is what
// the references are for. Stores into objects that are themselves
// shard-rooted stay inside the shard. Accesses rooted at an
// under-construction local (the router's build path) are exempt, like
// guardedby's constructor exemption.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

var ShardIsoAnalyzer = &Analyzer{
	Name: "shardiso",
	Doc:  "`// shard-owned` state never escapes the router boundary: no store, return, channel, or unbounded-goroutine capture",
	Run:  runShardIso,
}

type siViolation struct {
	pkg string
	pos token.Pos
	msg string
}

type siFacts struct {
	viols []siViolation
}

func runShardIso(pass *Pass) {
	facts := pass.Prog.Memo("shardiso", func() interface{} {
		return buildShardIsoFacts(pass.Prog)
	}).(*siFacts)
	for _, v := range facts.viols {
		if v.pkg == pass.Pkg.Path {
			pass.Reportf(v.pos, "%s", v.msg)
		}
	}
}

// shardOwnedRE matches the field annotation.
var shardOwnedRE = regexp.MustCompile(`\bshard-owned\b`)

// collectShardFields parses every `// shard-owned` field annotation in
// the program, mapping the field object to its display name.
func collectShardFields(prog *Program) map[*types.Var]string {
	fields := make(map[*types.Var]string)
	for _, pkg := range prog.Pkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					text := ""
					if field.Doc != nil {
						text += field.Doc.Text()
					}
					if field.Comment != nil {
						text += " " + field.Comment.Text()
					}
					if !shardOwnedRE.MatchString(text) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							fields[v] = pkg.Types.Name() + "." + ts.Name.Name + "." + name.Name
						}
					}
				}
				return true
			})
		}
	}
	return fields
}

func buildShardIsoFacts(prog *Program) *siFacts {
	fields := collectShardFields(prog)
	facts := &siFacts{}
	if len(fields) == 0 {
		return facts
	}
	cg := moduleCallGraph(prog)
	ef := moduleEscapes(prog)
	for _, key := range cg.keys {
		checkShardFunc(cg.declPkg[key], cg.decls[key], fields, ef, facts)
	}
	return facts
}

// shardWalker carries one function's analysis state.
type shardWalker struct {
	pkg    *Package
	info   *types.Info
	fields map[*types.Var]string
	taint  map[*types.Var]bool
	cons   map[*types.Var]bool
	ef     *escapeFacts
	// joined marks go statements proven bounded by the WaitGroup pattern.
	joined map[*ast.GoStmt]bool
	facts  *siFacts
}

func checkShardFunc(pkg *Package, fd *ast.FuncDecl, fields map[*types.Var]string, ef *escapeFacts, facts *siFacts) {
	w := &shardWalker{
		pkg:    pkg,
		info:   pkg.Info,
		fields: fields,
		taint:  make(map[*types.Var]bool),
		cons:   constructionLocals(pkg.Info, fd.Body, pkg.Types),
		ef:     ef,
		joined: joinedGoStmts(pkg.Info, fd.Body),
		facts:  facts,
	}
	// Taint fixpoint: locals holding shard-rooted values.
	for round := 0; round < 8; round++ {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					v := identVar(w.info, id)
					if v == nil || w.taint[v] {
						continue
					}
					if rhs := rhsFor(x, i); rhs != nil && w.rooted(rhs) {
						w.taint[v] = true
						changed = true
					}
				}
			case *ast.RangeStmt:
				if !w.rooted(x.X) {
					return true
				}
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e == nil {
						continue
					}
					if id, ok := unparen(e).(*ast.Ident); ok {
						if v := identVar(w.info, id); v != nil && !w.taint[v] {
							w.taint[v] = true
							changed = true
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	w.classify(fd.Body)
}

// rooted reports whether e derives from a read of a shard-owned field: a
// selector/index/slice/deref/assert/address chain through such a field, a
// tainted local, an append involving one, or a composite literal
// embedding one.
func (w *shardWalker) rooted(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		v := identVar(w.info, x)
		return v != nil && w.taint[v]
	case *ast.SelectorExpr:
		if f := fieldOf(w.info, x); f != nil {
			if _, owned := w.fields[f]; owned {
				return true
			}
		}
		return w.rooted(x.X)
	case *ast.IndexExpr:
		return w.rooted(x.X)
	case *ast.SliceExpr:
		return w.rooted(x.X)
	case *ast.StarExpr:
		return w.rooted(x.X)
	case *ast.TypeAssertExpr:
		return w.rooted(x.X)
	case *ast.UnaryExpr:
		return x.Op == token.AND && w.rooted(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.rooted(el) {
				return true
			}
		}
	case *ast.CallExpr:
		if isBuiltin(w.info, x, "append") {
			for _, arg := range x.Args {
				if w.rooted(arg) {
					return true
				}
			}
		}
	}
	return false
}

// rootDisplay names the shard-owned field a rooted expression reads, for
// messages. Falls back to "shard-owned value".
func (w *shardWalker) rootDisplay(e ast.Expr) string {
	name := "shard-owned value"
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if f := fieldOf(w.info, sel); f != nil {
			if d, owned := w.fields[f]; owned {
				name = "shard-owned " + d
				return false
			}
		}
		return true
	})
	return name
}

func (w *shardWalker) report(pos token.Pos, format string, args ...interface{}) {
	w.facts.viols = append(w.facts.viols, siViolation{
		pkg: w.pkg.Path,
		pos: pos,
		msg: fmt.Sprintf(format, args...),
	})
}

// classify runs the reporting pass over the body after taint saturation.
func (w *shardWalker) classify(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if w.rooted(r) {
					w.report(r.Pos(), "%s returned across the router boundary", w.rootDisplay(r))
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				rhs := rhsFor(x, i)
				if rhs == nil || !w.rooted(rhs) {
					continue
				}
				w.classifyStore(unparen(lhs), rhs)
			}
		case *ast.SendStmt:
			if w.rooted(x.Value) {
				w.report(x.Value.Pos(), "%s escapes through a channel send", w.rootDisplay(x.Value))
			}
		case *ast.GoStmt:
			if !w.joined[x] {
				w.checkGoCapture(x)
			}
		case *ast.CallExpr:
			w.classifyCall(x)
		}
		return true
	})
}

// classifyStore checks one `lhs = shard-rooted` assignment.
func (w *shardWalker) classifyStore(lhs ast.Expr, rhs ast.Expr) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if v := identVar(w.info, l); isPkgLevel(v) {
			w.report(rhs.Pos(), "%s stored in package-level variable %s", w.rootDisplay(rhs), l.Name)
		}
		// Local: alias propagation, handled by the taint fixpoint.
	case *ast.SelectorExpr:
		f := fieldOf(w.info, l)
		if f != nil {
			if _, owned := w.fields[f]; owned {
				return // moving between shard-owned slots stays inside
			}
		}
		if w.rooted(l.X) || aliasRootedShallow(w.info, w.cons, l.X) {
			return // a field of the shard object itself, or still building
		}
		w.report(rhs.Pos(), "%s stored into non-shard-owned field %s", w.rootDisplay(rhs), l.Sel.Name)
	case *ast.IndexExpr:
		if w.rooted(l.X) || aliasRootedShallow(w.info, w.cons, l.X) {
			return
		}
		if id, ok := unparen(l.X).(*ast.Ident); ok {
			if v := identVar(w.info, id); v != nil && !isPkgLevel(v) {
				// Inserting into a local container taints the container;
				// whether *it* escapes is judged at its own sinks.
				w.taint[v] = true
				return
			}
		}
		w.report(rhs.Pos(), "%s stored into a non-local container element", w.rootDisplay(rhs))
	case *ast.StarExpr:
		if !w.rooted(l.X) && !aliasRootedShallow(w.info, w.cons, l.X) {
			w.report(rhs.Pos(), "%s stored through a pointer that crosses the shard boundary", w.rootDisplay(rhs))
		}
	}
}

// classifyCall checks shard-rooted call arguments against the escape
// summaries. The function position (method receiver chains) is use, not
// escape.
func (w *shardWalker) classifyCall(call *ast.CallExpr) {
	if isBuiltin(w.info, call, "append") || isBuiltin(w.info, call, "len") ||
		isBuiltin(w.info, call, "cap") || isBuiltin(w.info, call, "delete") ||
		isBuiltin(w.info, call, "close") || isBuiltin(w.info, call, "copy") {
		return
	}
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return
	}
	key := funcKey(fn)
	if _, inModule := w.ef.params[key]; !inModule {
		return // unknown callee: cannot prove an escape
	}
	for i, arg := range call.Args {
		if !w.rooted(arg) {
			continue
		}
		if k := w.ef.argEscape(key, i); k != 0 {
			w.report(arg.Pos(), "%s passed to %s, whose parameter escapes by %s", w.rootDisplay(arg), fn.Name(), k)
		}
	}
}

// checkGoCapture reports shard-rooted references inside an unbounded
// goroutine.
func (w *shardWalker) checkGoCapture(g *ast.GoStmt) {
	ast.Inspect(g.Call, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if f := fieldOf(w.info, x); f != nil {
				if d, owned := w.fields[f]; owned {
					w.report(x.Pos(), "shard-owned %s captured by a goroutine that outlives the per-shard call", d)
					return false
				}
			}
		case *ast.Ident:
			if v := identVar(w.info, x); v != nil && w.taint[v] {
				w.report(x.Pos(), "shard-owned value %s captured by a goroutine that outlives the per-shard call", x.Name)
			}
		}
		return true
	})
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
