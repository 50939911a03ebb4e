package lint

// This file is the control-flow-graph layer under unitcheck's dataflow
// and poollife's release-path check. It builds a statement-level CFG for
// one function body from the AST alone — no types needed — decomposing
// structured control flow (if/for/range/switch/select, labeled
// break/continue, goto, fallthrough) into basic blocks connected by
// successor edges. Each block carries the statements and condition
// expressions evaluated in it, in evaluation order, so a forward dataflow
// (dataflow.go) can replay them.
//
// Terminators: return, panic(...), os.Exit, runtime.Goexit, and
// log.Fatal* end a block with an edge to the synthetic exit block. A
// `for` without a condition gets no head→join edge — the only way past
// it is break, return, or goto. A `range` loop always gets an exit edge:
// ranging over a channel terminates when the producer closes it.
// TestCFGExitReachability pins these edges by asking which bodies have a
// reachable block that cannot reach exit.
//
// defer is registration-time sequential (the DeferStmt sits in its block
// like any statement) and the deferred calls are additionally collected on
// the graph, since they run at function exit.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block.
type cfgBlock struct {
	index int
	// nodes are the statements and condition expressions evaluated in
	// this block, in order. Nested function literals are opaque: their
	// bodies get their own CFGs.
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry, exit *cfgBlock
	blocks      []*cfgBlock
	// defers are the defer statements registered anywhere in the body;
	// their calls execute at every path into exit.
	defers []*ast.DeferStmt
}

// cfgScope is one enclosing breakable/continuable construct.
type cfgScope struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select scopes
}

type cfgBuilder struct {
	g      *funcCFG
	cur    *cfgBlock // nil while the current point is unreachable
	scopes []cfgScope
	labels map[string]*cfgBlock // label -> first block of labeled stmt
	gotos  map[string][]*cfgBlock
}

// buildCFG constructs the CFG of a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{
		g:      &funcCFG{},
		labels: make(map[string]*cfgBlock),
		gotos:  make(map[string][]*cfgBlock),
	}
	b.g.entry = b.newBlock()
	b.g.exit = b.newBlock()
	b.cur = b.g.entry
	b.stmtList(body.List, "")
	if b.cur != nil {
		b.edge(b.cur, b.g.exit)
	}
	// Resolve forward gotos.
	for name, srcs := range b.gotos {
		if dst := b.labels[name]; dst != nil {
			for _, src := range srcs {
				b.edge(src, dst)
			}
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// add appends a node to the current block, starting a fresh (unreachable)
// block after a terminator so later statements are still recorded.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

// findScope locates the innermost scope matching the label (or the
// innermost breakable/continuable one for an empty label).
func (b *cfgBuilder) findScope(label string, needContinue bool) *cfgScope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		s := &b.scopes[i]
		if needContinue && s.continueTo == nil {
			continue
		}
		if label == "" || s.label == label {
			return s
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, label string) {
	for i, s := range list {
		lbl := ""
		if i == 0 {
			lbl = label
		}
		b.stmt(s, lbl)
	}
}

// terminatorCall reports whether a call expression never returns:
// panic(...), os.Exit, runtime.Goexit, log.Fatal*.
func terminatorCall(call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		case pkg.Name == "log" && (fun.Sel.Name == "Fatal" ||
			fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
			return true
		}
	}
	return false
}

// stmt builds one statement. label is non-empty when the statement is the
// target of a labeled statement (so loops can serve labeled
// break/continue).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:

	case *ast.LabeledStmt:
		start := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, start)
		}
		b.cur = start
		b.labels[s.Label.Name] = start
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.exit)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := unparen(s.X).(*ast.CallExpr); ok && terminatorCall(call) {
			b.edge(b.cur, b.g.exit)
			b.cur = nil
		}

	case *ast.DeferStmt:
		b.add(s)
		b.g.defers = append(b.g.defers, s)

	case *ast.BranchStmt:
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if sc := b.findScope(name, false); sc != nil && b.cur != nil {
				b.edge(b.cur, sc.breakTo)
			}
			b.cur = nil
		case token.CONTINUE:
			if sc := b.findScope(name, true); sc != nil && b.cur != nil {
				b.edge(b.cur, sc.continueTo)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				if dst := b.labels[name]; dst != nil {
					b.edge(b.cur, dst)
				} else {
					b.gotos[name] = append(b.gotos[name], b.cur)
				}
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Wired by the enclosing switch clause builder; nothing here.
		}

	case *ast.BlockStmt:
		b.stmtList(s.List, "")

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List, "")
		if b.cur != nil {
			b.edge(b.cur, join)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else, "")
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		} else {
			b.edge(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		join := b.newBlock()
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, join) // condition can fail
		}
		// With no condition the loop only exits through break/return/goto.
		var post *cfgBlock
		back := head
		if s.Post != nil {
			post = b.newBlock()
			b.cur = post
			b.add(s.Post)
			b.edge(post, head)
			back = post
		}
		body := b.newBlock()
		b.edge(head, body)
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: join, continueTo: back})
		b.cur = body
		b.stmtList(s.Body.List, "")
		if b.cur != nil {
			b.edge(b.cur, back)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = join

	case *ast.RangeStmt:
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = head
		b.add(s) // the range clause itself: defines Key/Value, reads X
		join := b.newBlock()
		b.edge(head, join) // ranges terminate (channel ranges on close)
		body := b.newBlock()
		b.edge(head, body)
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: join, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List, "")
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = join

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var bodyList []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				b.add(sw.Init)
			}
			if sw.Tag != nil {
				b.add(sw.Tag)
			}
			bodyList = sw.Body.List
		case *ast.TypeSwitchStmt:
			if sw.Init != nil {
				b.add(sw.Init)
			}
			b.add(sw.Assign)
			bodyList = sw.Body.List
		}
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		join := b.newBlock()
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: join})
		hasDefault := false
		// Pre-create each clause's body block so fallthrough can target
		// the following clause.
		var clauses []*ast.CaseClause
		var starts []*cfgBlock
		for _, cs := range bodyList {
			cc := cs.(*ast.CaseClause)
			clauses = append(clauses, cc)
			starts = append(starts, b.newBlock())
			if cc.List == nil {
				hasDefault = true
			}
		}
		for i, cc := range clauses {
			b.edge(head, starts[i])
			b.cur = starts[i]
			for _, e := range cc.List {
				b.add(e)
			}
			bodyStmts := cc.Body
			fallsThrough := false
			if n := len(bodyStmts); n > 0 {
				if br, ok := bodyStmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					fallsThrough = true
					bodyStmts = bodyStmts[:n-1]
				}
			}
			b.stmtList(bodyStmts, "")
			if b.cur != nil {
				if fallsThrough && i+1 < len(starts) {
					b.edge(b.cur, starts[i+1])
				} else {
					b.edge(b.cur, join)
				}
			}
		}
		if !hasDefault {
			b.edge(head, join)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = join

	case *ast.SelectStmt:
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		head := b.cur
		join := b.newBlock()
		b.scopes = append(b.scopes, cfgScope{label: label, breakTo: join})
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			body := b.newBlock()
			b.edge(head, body)
			b.cur = body
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmtList(cc.Body, "")
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		}
		// A select with no clauses blocks forever: head gets no successor
		// and join stays unreachable.
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = join

	default:
		// Assignments, declarations, sends, go statements, inc/dec.
		b.add(s)
	}
}
