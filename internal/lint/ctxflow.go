package lint

import "go/ast"

// CtxFlowAnalyzer enforces the context boundary on the query and ingest
// hot paths: the facade (package mithrilog, the cmd binaries, examples) is
// the one layer allowed to mint a fresh context for callers that did not
// supply one; everything below it must thread the context it was handed,
// or cancellation and the per-query deadline silently stop working — the
// scheduler's admission queue, the page-scan abort checks, and the 429/504
// mapping in the server all hang off one context chain.
//
// The check is deliberately blunt: any call to context.Background() or
// context.TODO() inside a hot-path package is a finding. Hot-path
// packages are recognized by their final import-path segment under an
// internal/ tree (core, sched, storage, index, server, filter, query,
// rex).
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc: "no context.Background()/context.TODO() below the facade on " +
		"search/ingest hot paths; thread the caller's context",
	Run: runCtxFlow,
}

// ctxHotSegments are the internal package names forming the hot paths.
var ctxHotSegments = map[string]bool{
	"core":    true,
	"sched":   true,
	"storage": true,
	"index":   true,
	"server":  true,
	"filter":  true,
	"query":   true,
	"rex":     true,
	"router":  true,
}

func runCtxFlow(pass *Pass) {
	if !ctxHotSegments[internalSegment(pass.Pkg.Path)] {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(call.Pos(),
					"context.%s() below the facade: hot-path packages must thread their caller's context (see LINT.md)",
					fn.Name())
			}
			return true
		})
	}
}
