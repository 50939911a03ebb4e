package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc parses a single-function source body and returns its CFG.
// buildCFG is AST-only, so no type checking is needed here.
func parseFunc(t *testing.T, src string) *funcCFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return buildCFG(fd.Body)
		}
	}
	t.Fatalf("no function in %q", src)
	return nil
}

// leaks reports whether some reachable block cannot reach the exit: a
// body that can loop or block forever.
func leaks(g *funcCFG) bool {
	reach := g.reachable()
	exits := g.canReachExit()
	for _, b := range g.blocks {
		if reach[b] && !exits[b] {
			return true
		}
	}
	return false
}

func TestCFGExitReachability(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		leaky bool
	}{
		{"straight line", `func f() { x := 1; _ = x }`, false},
		{"if else join", `func f(c bool) int {
			if c {
				return 1
			} else {
				c = false
			}
			return 0
		}`, false},
		{"bounded for", `func f(n int) {
			for i := 0; i < n; i++ {
				_ = i
			}
		}`, false},
		{"infinite for", `func f() { for { } }`, true},
		{"infinite for with break", `func f(c bool) {
			for {
				if c {
					break
				}
			}
		}`, false},
		{"infinite for with return", `func f(ch chan int) {
			for {
				if v := <-ch; v == 0 {
					return
				}
			}
		}`, false},
		{"infinite for with panic", `func f() {
			for {
				panic("wedged")
			}
		}`, false},
		{"labeled break from nested loop", `func f(c bool) {
		outer:
			for {
				for {
					if c {
						break outer
					}
				}
			}
		}`, false},
		{"labeled continue only", `func f(c bool) {
		outer:
			for {
				for {
					if c {
						continue outer
					}
				}
			}
		}`, true},
		{"goto self loop", `func f() {
		L:
			goto L
		}`, true},
		{"forward goto exits", `func f(c bool) {
			for {
				if c {
					goto done
				}
			}
		done:
			return
		}`, false},
		{"empty select", `func f() { select {} }`, true},
		{"select with exit case", `func f(done chan struct{}, ch chan int) {
			for {
				select {
				case <-done:
					return
				case v := <-ch:
					_ = v
				}
			}
		}`, false},
		{"select without exit case", `func f(ch chan int) {
			for {
				select {
				case v := <-ch:
					_ = v
				default:
				}
			}
		}`, true},
		{"channel range terminates on close", `func f(ch chan int) {
			for v := range ch {
				_ = v
			}
		}`, false},
		{"switch with fallthrough", `func f(x int) int {
			switch x {
			case 1:
				fallthrough
			case 2:
				return 2
			default:
				x++
			}
			return x
		}`, false},
		{"os.Exit terminates", `func f() {
			for {
				os.Exit(1)
			}
		}`, false},
		{"short-circuit condition", `func f(a, b bool) int {
			if a && b {
				return 1
			}
			return 0
		}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := parseFunc(t, tc.src)
			if got := leaks(g); got != tc.leaky {
				t.Errorf("leaks() = %v, want %v", got, tc.leaky)
			}
		})
	}
}

func TestCFGBranching(t *testing.T) {
	g := parseFunc(t, `func f(c bool) {
		x := 0
		if c {
			x = 1
		} else {
			x = 2
		}
		_ = x
	}`)
	branchy := 0
	for _, b := range g.blocks {
		if len(b.succs) >= 2 {
			branchy++
		}
	}
	if branchy != 1 {
		t.Errorf("got %d branching blocks, want exactly 1 (the condition)", branchy)
	}
}

func TestCFGDefersCollected(t *testing.T) {
	g := parseFunc(t, `func f(c bool) {
		defer println("one")
		if c {
			defer println("two")
		}
	}`)
	if len(g.defers) != 2 {
		t.Errorf("got %d defers, want 2", len(g.defers))
	}
}

// checkFunc type-checks a one-function file and returns the declaration,
// its CFG, and the type info, for the dataflow tests.
func checkFunc(t *testing.T, src string) (*funcCFG, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "df_test.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("type check: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return buildCFG(fd.Body), info
		}
	}
	t.Fatalf("no function in %q", src)
	return nil, nil
}

// defsAtReturn solves reaching definitions and returns how many distinct
// definition sites of the named variable reach the block holding the
// return statement.
func defsAtReturn(t *testing.T, g *funcCFG, info *types.Info, name string) int {
	t.Helper()
	var obj types.Object
	for id, o := range info.Defs {
		if o != nil && id.Name == name {
			obj = o
			break
		}
	}
	if obj == nil {
		t.Fatalf("no definition of %q", name)
	}
	in := reachingDefs(g, info)
	for _, b := range g.blocks {
		for _, n := range b.nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				return len(in[b][obj])
			}
		}
	}
	t.Fatalf("no return statement found")
	return 0
}

func TestReachingDefsBranchJoin(t *testing.T) {
	g, info := checkFunc(t, `func f(c bool) int {
		x := 1
		if c {
			x = 2
		}
		return x
	}`)
	if got := defsAtReturn(t, g, info, "x"); got != 2 {
		t.Errorf("defs of x at return = %d, want 2 (init and then-branch)", got)
	}
}

func TestReachingDefsKill(t *testing.T) {
	// An unconditional redefinition kills the earlier one; the branch
	// only forces a block boundary so the return sees a block-entry fact.
	g, info := checkFunc(t, `func f(c bool) int {
		x := 1
		x = 2
		if c {
			_ = c
		}
		return x
	}`)
	if got := defsAtReturn(t, g, info, "x"); got != 1 {
		t.Errorf("defs of x at return = %d, want 1 (the redefinition kills the init)", got)
	}
}

func TestReachingDefsLoopFixpoint(t *testing.T) {
	// The loop-body definition must flow around the back edge and out of
	// the loop, alongside the initial definition.
	g, info := checkFunc(t, `func f(n int) int {
		x := 0
		for i := 0; i < n; i++ {
			x = x + i
		}
		return x
	}`)
	if got := defsAtReturn(t, g, info, "x"); got != 2 {
		t.Errorf("defs of x at return = %d, want 2 (init and loop body)", got)
	}
}

func TestReachingDefsShortCircuit(t *testing.T) {
	// Short-circuit operators do not define anything; both definitions of
	// x flow past them untouched.
	g, info := checkFunc(t, `func f(a, b bool) bool {
		x := a
		if a && b {
			x = b
		}
		return x
	}`)
	if got := defsAtReturn(t, g, info, "x"); got != 2 {
		t.Errorf("defs of x at return = %d, want 2", got)
	}
}

func TestUnitBinaryAlgebra(t *testing.T) {
	cases := []struct {
		op   token.Token
		a, b unitTag
		want unitTag
	}{
		{token.QUO, unitCycles, unitHertz, unitTime},
		{token.QUO, unitBytes, unitRate, unitTime},
		{token.QUO, unitBytes, unitTime, unitRate},
		{token.QUO, unitBytes, unitBytes, unitNone}, // ratios cancel
		{token.QUO, unitCycles, unitBytes, unitMixed},
		{token.ADD, unitCycles, unitBytes, unitMixed},
		{token.ADD, unitCycles, unitCycles, unitCycles},
		{token.ADD, unitNone, unitCycles, unitCycles},
		{token.MUL, unitCycles, unitNone, unitCycles},
		{token.LSS, unitTime, unitTime, unitNone}, // comparisons are dimensionless
		{token.SHL, unitBytes, unitNone, unitBytes},
	}
	for _, tc := range cases {
		if got := binaryResult(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("binaryResult(%v, %v, %v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

// preds computes the predecessor lists (the builder only records
// successors).
func (g *funcCFG) preds() map[*cfgBlock][]*cfgBlock {
	p := make(map[*cfgBlock][]*cfgBlock, len(g.blocks))
	for _, b := range g.blocks {
		for _, s := range b.succs {
			p[s] = append(p[s], b)
		}
	}
	return p
}

// reachable returns the set of blocks reachable from entry.
func (g *funcCFG) reachable() map[*cfgBlock]bool {
	seen := make(map[*cfgBlock]bool)
	var walk func(*cfgBlock)
	walk = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			walk(s)
		}
	}
	walk(g.entry)
	return seen
}

// canReachExit returns the set of blocks from which exit is reachable.
func (g *funcCFG) canReachExit() map[*cfgBlock]bool {
	preds := g.preds()
	seen := make(map[*cfgBlock]bool)
	var walk func(*cfgBlock)
	walk = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, p := range preds[b] {
			walk(p)
		}
	}
	walk(g.exit)
	return seen
}
