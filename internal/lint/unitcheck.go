package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// UnitCheckAnalyzer is a units-of-measure check over the CFG/dataflow
// layer: it infers a physical unit for every value flowing through the
// hot-path packages — cycles, bytes, hertz, wall time, bytes/second —
// from hwsim's API signatures, field/variable names, and static types,
// propagates those tags through local assignments with a forward dataflow
// (so renaming a counter does not launder its unit), and flags arithmetic
// that crosses a unit boundary outside internal/hwsim. Every throughput
// and simulated-time figure the repository reports (Figs. 13/14) is a
// unit conversion; doing one inline — float64(cycles)/clockHz*1e9 —
// bypasses the one datapath model and is exactly how a reproduction
// silently drifts. The conversions live in hwsim: CyclesToDuration,
// DurationForBytes, BytesPerSecond, and the SystemConfig derivations.
//
// The same packages may not re-type the paper's constants either (see
// checkPaperConsts): the 200 MHz clock, the datapath and tokenizer
// widths, the pipeline count, the index-tree geometry and the link
// bandwidths are defined once, in hwsim, so the model has one
// definition of each number as well as of each conversion.
var UnitCheckAnalyzer = &Analyzer{
	Name: "unitcheck",
	Doc: "values tagged cycles/bytes/hertz/duration/rate may only mix " +
		"through internal/hwsim's conversion helpers, and the paper's " +
		"constants are referenced from hwsim, never re-typed as literals",
	Run: runUnitCheck,
}

// unitTag is one point of the unit lattice. unitNone is ⊥ (dimensionless
// or unknown — compatible with everything); unitMixed is ⊤ (conflicting
// units reached a join).
type unitTag uint8

const (
	unitNone unitTag = iota
	unitCycles
	unitBytes
	unitHertz
	unitTime // time.Duration or float seconds
	unitRate // bytes per second
	unitMixed
)

func (t unitTag) String() string {
	switch t {
	case unitCycles:
		return "cycles"
	case unitBytes:
		return "bytes"
	case unitHertz:
		return "hertz"
	case unitTime:
		return "duration"
	case unitRate:
		return "bytes/s"
	case unitMixed:
		return "mixed-unit"
	}
	return "dimensionless"
}

// unitScopeSegments are the internal packages that are checked: the
// engine and hot-path packages whose numbers end up in reported figures
// and whose geometry must match the model. hwsim, the authority, is not
// among them.
var unitScopeSegments = map[string]bool{
	"core":      true,
	"sched":     true,
	"storage":   true,
	"server":    true,
	"tokenizer": true,
	"filter":    true,
	"lzah":      true,
	"index":     true,
	"cuckoo":    true,
}

// unitEnv is the dataflow fact: the inferred unit of each local variable.
type unitEnv map[types.Object]unitTag

func (e unitEnv) clone() unitEnv {
	out := make(unitEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

type unitChecker struct {
	pass     *Pass
	info     *types.Info
	reported map[token.Pos]bool
}

func runUnitCheck(pass *Pass) {
	if !unitScopeSegments[internalSegment(pass.Pkg.Path)] {
		return
	}
	checkPaperConsts(pass)
	u := &unitChecker{pass: pass, info: pass.Pkg.Info, reported: make(map[token.Pos]bool)}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				u.checkFunc(body)
			}
			return true // nested literals get their own pass
		})
	}
}

// checkFunc solves the tag environment to fixpoint over the function's
// CFG, then replays each reachable block once with its stable input
// environment, reporting unit mixes.
func (u *unitChecker) checkFunc(body *ast.BlockStmt) {
	g := buildCFG(body)
	d := &dataflow{
		g:    g,
		init: func() dfFact { return unitEnv{} },
		transfer: func(b *cfgBlock, in dfFact) dfFact {
			return u.execBlock(b, in.(unitEnv).clone(), false)
		},
		join: func(a, b dfFact) dfFact {
			ea, eb := a.(unitEnv), b.(unitEnv)
			out := ea.clone()
			for obj, tb := range eb {
				ta, ok := out[obj]
				switch {
				case !ok || ta == unitNone:
					out[obj] = tb
				case tb == unitNone || ta == tb:
					// keep ta
				default:
					out[obj] = unitMixed
				}
			}
			return out
		},
		equal: func(a, b dfFact) bool {
			ea, eb := a.(unitEnv), b.(unitEnv)
			if len(ea) != len(eb) {
				return false
			}
			for k, v := range ea {
				if w, ok := eb[k]; !ok || v != w {
					return false
				}
			}
			return true
		},
	}
	in := d.solve()
	for _, b := range g.blocks {
		if fact, ok := in[b]; ok {
			u.execBlock(b, fact.(unitEnv).clone(), true)
		}
	}
}

// execBlock replays one block's nodes against env, updating it in place;
// with report set it also flags unit mixes. It is the dataflow transfer
// function and the diagnostic pass in one, so the two can never disagree.
func (u *unitChecker) execBlock(b *cfgBlock, env unitEnv, report bool) unitEnv {
	for _, n := range b.nodes {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				tags := make([]unitTag, len(n.Rhs))
				for i, rhs := range n.Rhs {
					tags[i] = u.eval(rhs, env, report)
				}
				for i, lhs := range n.Lhs {
					tag := unitNone
					if len(n.Rhs) == len(n.Lhs) {
						tag = tags[i]
					}
					u.assign(lhs, tag, env)
				}
			} else {
				// Compound assignment: the operator mixes lhs and rhs.
				lt := u.eval(n.Lhs[0], env, false)
				rt := u.eval(n.Rhs[0], env, report)
				op := compoundOp(n.Tok)
				if report {
					u.checkMix(n.Pos(), op, lt, rt)
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							tag := unitNone
							if i < len(vs.Values) {
								tag = u.eval(vs.Values[i], env, report)
							}
							u.assign(name, tag, env)
						}
					}
				}
			}
		case *ast.RangeStmt:
			u.eval(n.X, env, report)
			if n.Key != nil {
				u.assign(n.Key, unitNone, env)
			}
			if n.Value != nil {
				u.assign(n.Value, unitNone, env)
			}
		case *ast.IncDecStmt:
			// counter++ neither mixes nor changes the tag.
		case ast.Expr:
			u.eval(n, env, report)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				u.eval(r, env, report)
			}
		case *ast.SendStmt:
			u.eval(n.Value, env, report)
		case *ast.ExprStmt:
			u.eval(n.X, env, report)
		case *ast.GoStmt:
			u.evalCallArgs(n.Call, env, report)
		case *ast.DeferStmt:
			u.evalCallArgs(n.Call, env, report)
		}
	}
	return env
}

func compoundOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	}
	return token.ILLEGAL
}

// assign records lhs's new tag when lhs is a plain identifier (locals are
// what the dataflow tracks; fields keep their name-derived tags).
func (u *unitChecker) assign(lhs ast.Expr, tag unitTag, env unitEnv) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := u.info.Defs[id]
	if obj == nil {
		obj = u.info.Uses[id]
	}
	if obj == nil {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	// A name-derived tag on the variable itself still applies when the
	// assigned value is untagged (x := 0 keeps x's declared role).
	if tag == unitNone {
		tag = u.tagForObject(obj)
	}
	env[obj] = tag
}

// eval computes an expression's unit tag under env, reporting mixes at
// binary operators when report is set. Function literals are opaque.
func (u *unitChecker) eval(e ast.Expr, env unitEnv, report bool) unitTag {
	e = unparen(e)
	if tv, ok := u.info.Types[e]; ok && tv.Value != nil {
		// Literal constants are scale factors, not measurements
		// (250*time.Millisecond-style idioms stay legal) — but a NAMED
		// constant carries the unit its name declares, so a calibrated
		// rate like softwareScanBytesPerSecond cannot be mixed freely.
		if obj := constObject(u.info, e); obj != nil {
			return u.tagForObject(obj)
		}
		return unitNone
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := u.info.Uses[e]
		if obj == nil {
			obj = u.info.Defs[e]
		}
		if obj == nil {
			return unitNone
		}
		if tag, ok := env[obj]; ok && tag != unitNone {
			return tag
		}
		return u.tagForObject(obj)
	case *ast.SelectorExpr:
		u.eval(e.X, env, report)
		if field := fieldOf(u.info, e); field != nil {
			return u.tagForObject(field)
		}
		if obj, ok := u.info.Uses[e.Sel]; ok {
			if _, isVar := obj.(*types.Var); isVar {
				return u.tagForObject(obj)
			}
		}
		return unitNone
	case *ast.IndexExpr:
		u.eval(e.Index, env, report)
		return u.eval(e.X, env, report)
	case *ast.StarExpr:
		return u.eval(e.X, env, report)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			u.eval(e.X, env, report)
			return unitNone
		}
		return u.eval(e.X, env, report)
	case *ast.CallExpr:
		return u.evalCall(e, env, report)
	case *ast.BinaryExpr:
		lt := u.eval(e.X, env, report)
		rt := u.eval(e.Y, env, report)
		if report {
			u.checkMix(e.OpPos, e.Op, lt, rt)
		}
		return binaryResult(e.Op, lt, rt)
	case *ast.FuncLit:
		return unitNone
	default:
		return unitNone
	}
}

func (u *unitChecker) evalCallArgs(call *ast.CallExpr, env unitEnv, report bool) {
	for _, a := range call.Args {
		u.eval(a, env, report)
	}
}

// evalCall tags a call result: hwsim's API by name, duration-typed
// results by type, conversions by their operand (so time.Duration(n) on a
// dimensionless n stays a scale factor, not a measurement).
func (u *unitChecker) evalCall(call *ast.CallExpr, env unitEnv, report bool) unitTag {
	// Type conversion: the unit rides through.
	if tv, ok := u.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return u.eval(call.Args[0], env, report)
	}
	u.evalCallArgs(call, env, report)
	if fn := calleeFunc(u.info, call); fn != nil {
		name := strings.ToLower(fn.Name())
		if fn.Pkg() != nil && pkgPathHasSuffix(fn.Pkg().Path(), hwsimPath) {
			switch {
			case strings.Contains(name, "cyclestoduration"),
				strings.Contains(name, "durationforbytes"):
				return unitTime
			case strings.Contains(name, "bytespersecond"),
				strings.Contains(name, "throughput"),
				strings.Contains(name, "speed"),
				strings.Contains(name, "bound"),
				strings.Contains(name, "bandwidth"):
				return unitRate
			case strings.Contains(name, "cycles"):
				return unitCycles
			case strings.Contains(name, "bytes"):
				return unitBytes
			}
		}
		switch name {
		case "seconds", "minutes", "hours", "milliseconds", "microseconds", "nanoseconds":
			if isDurationMethod(fn) {
				return unitTime
			}
		case "bandwidth":
			return unitRate
		}
	}
	if tv, ok := u.info.Types[call]; ok && isDurationType(tv.Type) {
		return unitTime
	}
	return unitNone
}

// constObject resolves a constant-valued expression to the named constant
// it references, or nil for literals and constant arithmetic.
func constObject(info *types.Info, e ast.Expr) types.Object {
	var id *ast.Ident
	switch e := unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	if c, ok := info.Uses[id].(*types.Const); ok {
		return c
	}
	return nil
}

// isDurationType reports whether t is time.Duration.
func isDurationType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Duration"
}

// isDurationMethod reports whether fn is a method on time.Duration.
func isDurationMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isDurationType(sig.Recv().Type())
}

// tagForObject derives a unit from an object's type and name. Only
// numeric values carry units; the name patterns mirror the repository's
// vocabulary (Cycles, ScannedRawBytes, ClockHz, Bandwidth, ...).
func (u *unitChecker) tagForObject(obj types.Object) unitTag {
	t := obj.Type()
	if isDurationType(t) {
		return unitTime
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 {
		return unitNone
	}
	name := strings.ToLower(obj.Name())
	switch {
	case strings.Contains(name, "percycle"):
		// A datapath width (bytes per cycle) is a conversion coefficient,
		// consumed by hwsim.CyclesForBytes.
		return unitNone
	case strings.Contains(name, "bandwidth"),
		strings.Contains(name, "bytespersecond"),
		strings.Contains(name, "persecond"),
		strings.HasSuffix(name, "bw"):
		return unitRate
	case strings.Contains(name, "hz"), strings.Contains(name, "clock"):
		return unitHertz
	case strings.Contains(name, "cycle"), strings.Contains(name, "latency"):
		return unitCycles
	case strings.Contains(name, "bytes"):
		return unitBytes
	}
	return unitNone
}

// binaryResult is the lattice algebra for one operator application.
func binaryResult(op token.Token, a, b unitTag) unitTag {
	switch op {
	case token.LAND, token.LOR, token.EQL, token.NEQ,
		token.LSS, token.LEQ, token.GTR, token.GEQ:
		return unitNone
	case token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
		return a
	}
	switch {
	case a == unitNone:
		return b
	case b == unitNone:
		return a
	case a == b:
		if op == token.QUO {
			return unitNone // same-unit ratio (e.g. compression ratio)
		}
		return a
	}
	// Cross-unit results of the conversions hwsim owns; returning the
	// physically-correct tag keeps one inline conversion from cascading
	// into a report at every enclosing operator.
	if op == token.QUO {
		switch {
		case a == unitCycles && b == unitHertz:
			return unitTime
		case a == unitBytes && b == unitRate:
			return unitTime
		case a == unitBytes && b == unitTime:
			return unitRate
		}
	}
	return unitMixed
}

// checkMix reports a cross-unit operator application.
func (u *unitChecker) checkMix(pos token.Pos, op token.Token, a, b unitTag) {
	if op == token.LAND || op == token.LOR ||
		op == token.SHL || op == token.SHR ||
		op == token.AND || op == token.OR || op == token.XOR || op == token.AND_NOT ||
		op == token.ILLEGAL {
		return
	}
	if u.reported[pos] {
		return
	}
	if a == unitMixed || b == unitMixed {
		other := a
		if a == unitMixed {
			other = b
		}
		if other != unitNone {
			u.reported[pos] = true
			u.pass.Reportf(pos,
				"value carries conflicting units on different control-flow paths; split the variable or convert through internal/hwsim")
		}
		return
	}
	if a == unitNone || b == unitNone || a == b {
		return
	}
	u.reported[pos] = true
	u.pass.Reportf(pos, "unit mix: %s %s %s computed inline outside internal/hwsim; use %s",
		a, op, b, mixHelper(op, a, b))
}

// mixHelper names the hwsim conversion that owns a given unit crossing.
func mixHelper(op token.Token, a, b unitTag) string {
	if op == token.QUO {
		switch {
		case a == unitCycles && b == unitHertz:
			return "hwsim.CyclesToDuration"
		case a == unitBytes && b == unitRate:
			return "hwsim.DurationForBytes"
		case a == unitBytes && b == unitTime:
			return "hwsim.BytesPerSecond"
		}
	}
	if op == token.MUL && (a == unitHertz || b == unitHertz) {
		return "a SystemConfig derivation (hwsim.ThroughputFromCycles or PipelineWireSpeed)"
	}
	return "an internal/hwsim conversion helper"
}

// ---------------------------------------------------------------------------
// Paper-constant provenance.

// paperConst is one canonical constant.
type paperConst struct {
	value float64
	sym   string // canonical symbol, for the diagnostic
	cite  string // paper section
}

// distinctivePaperConsts are values unique enough to flag anywhere.
var distinctivePaperConsts = []paperConst{
	{200e6, "hwsim.ClockHz", "§7.2"},
	{4.8e9, "hwsim.InternalBandwidth", "§7.2"},
	{3.1e9, "hwsim.ExternalBandwidth", "§7.2"},
	{7e9, "hwsim.ComparisonStorageBandwidth", "Table 3"},
}

// ambiguousPaperConsts map a name fragment (lower-cased substring of the
// declared constant name) plus value to the canonical symbol.
var ambiguousPaperConsts = []struct {
	nameFrag string
	paperConst
}{
	{"wordsize", paperConst{16, "hwsim.DatapathBytes", "§4.1"}},
	{"datapath", paperConst{16, "hwsim.DatapathBytes", "§4.1"}},
	{"leafentries", paperConst{16, "hwsim.IndexLeafEntries", "§6.1"}},
	{"rootentries", paperConst{16, "hwsim.IndexRootEntries", "§6.1"}},
	{"percycle", paperConst{2, "hwsim.TokenizerBytesPerCycle", "§4.1"}},
	{"tokenizers", paperConst{8, "hwsim.TokenizersPerPipeline", "§4.1"}},
	{"pipelines", paperConst{4, "hwsim.DefaultPipelines", "§7.2"}},
}

// litFloat extracts the numeric value of a basic literal, if any.
func litFloat(pass *Pass, lit *ast.BasicLit) (float64, bool) {
	if lit.Kind != token.INT && lit.Kind != token.FLOAT {
		return 0, false
	}
	tv, ok := pass.Pkg.Info.Types[lit]
	if !ok || tv.Value == nil {
		return 0, false
	}
	f, _ := constant.Float64Val(constant.ToFloat(tv.Value))
	return f, true
}

// checkPaperConsts enforces paper-constant provenance. A re-declared
// literal is a fork: when one copy is tuned (an ablation, a bugfix) the
// others silently keep deriving Fig. 13/14 numbers from the old model.
// Two flag classes:
//
//   - distinctive values (200e6, 4.8e9, 3.1e9, 7e9) are flagged wherever
//     a literal spells them — there is no innocent reason to write the
//     prototype's clock inline;
//   - ambiguous values (16, 2, 8, 4) are flagged only when a package-level
//     constant whose NAME claims the paper concept (WordSize,
//     LeafEntries, BytesPerCycle, Pipelines, ...) is initialized from a
//     bare literal instead of the hwsim symbol.
func checkPaperConsts(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		// Class 1: distinctive literals anywhere in the file.
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok {
				return true
			}
			v, ok := litFloat(pass, lit)
			if !ok {
				return true
			}
			for _, pc := range distinctivePaperConsts {
				if v == pc.value {
					pass.Reportf(lit.Pos(),
						"paper constant %s written as a literal; reference %s (%s) so the model has one definition",
						lit.Value, pc.sym, pc.cite)
				}
			}
			return true
		})
		// Class 2: package-level constants whose name claims a paper
		// concept but whose definition is a fresh literal.
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					lit, ok := unparen(vs.Values[i]).(*ast.BasicLit)
					if !ok {
						continue
					}
					v, ok := litFloat(pass, lit)
					if !ok {
						continue
					}
					lower := strings.ToLower(name.Name)
					for _, pc := range ambiguousPaperConsts {
						if v == pc.value && strings.Contains(lower, pc.nameFrag) {
							pass.Reportf(name.Pos(),
								"%s redefines paper constant %v; reference %s (%s) instead of a literal",
								name.Name, lit.Value, pc.sym, pc.cite)
							break
						}
					}
				}
			}
		}
	}
}
