package lint

// persistver: persistence-format versioning soundness. Every on-disk
// stream the module writes (the MLFLEET fleet manifest, the index.meta
// sidecar, segment data pages) is annotated at its encode and
// decode entry points:
//
//	//mithrilint:persist encode <stream>
//	//mithrilint:persist decode <stream>
//
// The analyzer resolves, per annotated function, which package-level
// magic/version constants it references (a persistence constant is any
// const whose name contains "magic" or "version", case-insensitively;
// aliases like `Magic = fleetMagic` resolve to their canonical
// const transitively). It then proves, program-wide:
//
//  1. every encoder references at least one persistence constant — a
//     stream with no magic/version cannot be evolved safely;
//  2. all encoders of one stream agree on the exact constant set, so two
//     writers cannot drift apart;
//  3. every stream has both an encoder and a decoder — an orphaned half
//     is either dead code or an unchecked reader;
//  4. every decoder *compares* at least one stream constant — the
//     reference must appear under a condition (if/switch/case/for), not
//     just be written somewhere;
//  5. the union of the constants compared across a stream's decoders
//     covers everything its encoders write: a version bump that only the
//     writer knows about is exactly the WriteSegments/Reopen drift the
//     fuzz harness used to be the only line of defense against;
//  6. stream constants are referenced *only* inside annotated functions
//     (and const declarations) — an unannotated use is a format touch
//     the analyzer cannot audit.
//
// Constants shared between streams (a common version for meta+data
// pages) are fine: rules are per-stream over canonical const objects.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

var PersistVerAnalyzer = &Analyzer{
	Name: "persistver",
	Doc:  "persisted streams write one canonical magic/version const and compare it on every decode path",
	Run:  runPersistVer,
}

type pvViolation struct {
	pkg string
	pos token.Pos
	msg string
}

type pvFacts struct {
	viols []pvViolation
}

func runPersistVer(pass *Pass) {
	facts := pass.Prog.Memo("persistver", func() interface{} {
		return buildPersistVerFacts(pass.Prog)
	}).(*pvFacts)
	for _, v := range facts.viols {
		if v.pkg == pass.Pkg.Path {
			pass.Reportf(v.pos, "%s", v.msg)
		}
	}
}

var persistConstRE = regexp.MustCompile(`(?i)(magic|version)`)

// pvFunc is one annotated encode/decode entry point.
type pvFunc struct {
	pkg    *Package
	decl   *ast.FuncDecl
	role   string // "encode" or "decode"
	stream string
	// consts is every canonical persistence const the body references;
	// condConsts is the subset referenced inside a condition.
	consts     map[*types.Const]bool
	condConsts map[*types.Const]bool
}

func buildPersistVerFacts(prog *Program) *pvFacts {
	facts := &pvFacts{}
	aliases := persistAliases(prog)
	var fns []*pvFunc
	for _, pkg := range prog.Pkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					text := strings.TrimPrefix(c.Text, "//")
					if !strings.HasPrefix(text, "mithrilint:persist") {
						continue
					}
					parts := strings.Fields(text)
					if len(parts) != 3 || (parts[1] != "encode" && parts[1] != "decode") {
						facts.viol(pkg, c.Pos(), "malformed directive %q: want `//mithrilint:persist <encode|decode> <stream>`", text)
						continue
					}
					fn := &pvFunc{pkg: pkg, decl: fd, role: parts[1], stream: parts[2]}
					fn.consts, fn.condConsts = persistConstRefs(pkg, fd, aliases)
					fns = append(fns, fn)
				}
			}
		}
	}
	if len(fns) == 0 {
		return facts
	}

	streams := make(map[string][]*pvFunc)
	for _, fn := range fns {
		streams[fn.stream] = append(streams[fn.stream], fn)
	}
	names := make([]string, 0, len(streams))
	for s := range streams {
		names = append(names, s)
	}
	sort.Strings(names)

	streamConsts := make(map[*types.Const]string) // canonical const -> one stream using it
	for _, stream := range names {
		var encoders, decoders []*pvFunc
		for _, fn := range streams[stream] {
			if fn.role == "encode" {
				encoders = append(encoders, fn)
			} else {
				decoders = append(decoders, fn)
			}
		}
		// Rule 3: both halves present.
		if len(encoders) == 0 {
			fn := streams[stream][0]
			facts.viol(fn.pkg, fn.decl.Pos(), "stream %q has a decoder but no annotated encoder", stream)
		}
		if len(decoders) == 0 {
			fn := streams[stream][0]
			facts.viol(fn.pkg, fn.decl.Pos(), "stream %q has an encoder but no annotated decoder", stream)
		}
		// Rule 1: encoders write constants.
		written := make(map[*types.Const]bool)
		for _, enc := range encoders {
			if len(enc.consts) == 0 {
				facts.viol(enc.pkg, enc.decl.Pos(), "encoder %s of stream %q references no magic/version constant", enc.decl.Name.Name, stream)
			}
			for c := range enc.consts {
				written[c] = true
			}
		}
		// Rule 2: encoders agree exactly.
		for _, enc := range encoders {
			if len(enc.consts) == 0 {
				continue
			}
			for c := range written {
				if !enc.consts[c] {
					facts.viol(enc.pkg, enc.decl.Pos(), "encoder %s of stream %q omits constant %s that another encoder of the stream writes", enc.decl.Name.Name, stream, c.Name())
				}
			}
		}
		// Rule 4: each decoder compares at least one stream constant.
		compared := make(map[*types.Const]bool)
		for _, dec := range decoders {
			hit := false
			for c := range dec.condConsts {
				compared[c] = true
				hit = true
			}
			if !hit {
				facts.viol(dec.pkg, dec.decl.Pos(), "decoder %s of stream %q never compares a magic/version constant before trusting payload bytes", dec.decl.Name.Name, stream)
			}
		}
		// Rule 5: decoders jointly cover everything encoders write.
		if len(decoders) > 0 {
			for c := range written {
				if !compared[c] {
					dec := decoders[0]
					facts.viol(dec.pkg, dec.decl.Pos(), "stream %q writes constant %s but no decoder of the stream compares it", stream, c.Name())
				}
			}
		}
		for c := range written {
			streamConsts[c] = stream
		}
		for c := range compared {
			streamConsts[c] = stream
		}
	}

	// Rule 6: stream constants only appear inside annotated functions.
	checkStrayConstUses(prog, fns, streamConsts, aliases, facts)
	return facts
}

func (f *pvFacts) viol(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	f.viols = append(f.viols, pvViolation{pkg: pkg.Path, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// persistAliases maps every const whose initializer is a bare reference
// to another const (e.g. `Magic = fleetMagic`) to its transitively
// canonical const object.
func persistAliases(prog *Program) map[*types.Const]*types.Const {
	direct := make(map[*types.Const]*types.Const)
	for _, pkg := range prog.Pkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != len(vs.Values) {
						continue
					}
					for i, name := range vs.Names {
						lhs, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok {
							continue
						}
						rhs := constRefOf(pkg.Info, vs.Values[i])
						if rhs != nil && rhs != lhs {
							direct[lhs] = rhs
						}
					}
				}
			}
		}
	}
	out := make(map[*types.Const]*types.Const, len(direct))
	for c := range direct {
		seen := map[*types.Const]bool{c: true}
		cur := c
		for {
			next, ok := direct[cur]
			if !ok || seen[next] {
				break
			}
			seen[next] = true
			cur = next
		}
		out[c] = cur
	}
	return out
}

// constRefOf resolves a plain ident or selector expression to the const
// it names, or nil.
func constRefOf(info *types.Info, e ast.Expr) *types.Const {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if c, ok := info.Uses[x].(*types.Const); ok {
			return c
		}
	case *ast.SelectorExpr:
		if c, ok := info.Uses[x.Sel].(*types.Const); ok {
			return c
		}
	}
	return nil
}

// canonicalConst folds aliases away and keeps only package-level consts
// whose (canonical) name looks like a persistence constant.
func canonicalConst(c *types.Const, aliases map[*types.Const]*types.Const) *types.Const {
	if canon, ok := aliases[c]; ok {
		c = canon
	}
	if c.Pkg() == nil || !persistConstRE.MatchString(c.Name()) {
		return nil
	}
	// Package-level only: scope is the package scope.
	if c.Parent() != c.Pkg().Scope() {
		return nil
	}
	return c
}

// persistConstRefs collects the canonical persistence constants a
// function body references, and the subset referenced inside a
// condition (if/switch-tag/case-list/for-cond).
func persistConstRefs(pkg *Package, fd *ast.FuncDecl, aliases map[*types.Const]*types.Const) (all, cond map[*types.Const]bool) {
	all = make(map[*types.Const]bool)
	cond = make(map[*types.Const]bool)
	if fd.Body == nil {
		return all, cond
	}
	conds := condExprs(fd.Body)
	collect := func(e ast.Expr, into map[*types.Const]bool) {
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			c, ok := pkg.Info.Uses[id].(*types.Const)
			if !ok {
				return true
			}
			if canon := canonicalConst(c, aliases); canon != nil {
				into[canon] = true
			}
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, ok := pkg.Info.Uses[id].(*types.Const); ok {
				if canon := canonicalConst(c, aliases); canon != nil {
					all[canon] = true
				}
			}
		}
		return true
	})
	for _, e := range conds {
		collect(e, cond)
	}
	return all, cond
}

// condExprs returns every condition-position expression in the body.
func condExprs(body *ast.BlockStmt) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			out = append(out, x.Cond)
		case *ast.SwitchStmt:
			if x.Tag != nil {
				out = append(out, x.Tag)
			}
		case *ast.CaseClause:
			out = append(out, x.List...)
		case *ast.ForStmt:
			if x.Cond != nil {
				out = append(out, x.Cond)
			}
		}
		return true
	})
	return out
}

// checkStrayConstUses reports stream constants referenced outside
// annotated functions and const declarations (rule 6).
func checkStrayConstUses(prog *Program, fns []*pvFunc, streamConsts map[*types.Const]string, aliases map[*types.Const]*types.Const, facts *pvFacts) {
	annotated := make(map[*ast.FuncDecl]bool, len(fns))
	for _, fn := range fns {
		annotated[fn.decl] = true
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				// Const/var/type declarations may name the constants
				// (definitions, aliases) without touching bytes; only
				// function bodies are audited.
				d, ok := decl.(*ast.FuncDecl)
				if !ok || annotated[d] || d.Body == nil {
					continue
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					c, ok := pkg.Info.Uses[id].(*types.Const)
					if !ok {
						return true
					}
					canon := canonicalConst(c, aliases)
					if canon == nil {
						return true
					}
					if stream, ok := streamConsts[canon]; ok {
						facts.viol(pkg, id.Pos(), "constant %s of persisted stream %q used outside an annotated encode/decode function", canon.Name(), stream)
					}
					return true
				})
			}
		}
	}
}
