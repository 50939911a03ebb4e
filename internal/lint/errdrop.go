package lint

import "go/ast"

// ErrDropAnalyzer forbids discarding errors from the data-integrity core:
// the compression codecs (a failed decompress means a corrupt page), the
// simulated device (a failed read is an uncorrectable-ECC analogue), the
// inverted index, the cuckoo tables, and the core engine itself. COPR
// (arXiv:2402.18355) and the regex-indexing line of work both observe that
// log-store corruption bugs hide exactly where compression, indexing, and
// concurrent scans meet — an ignored error at one of those seams turns a
// detectable failure into silent data loss.
//
// Flagged: assigning such an error to the blank identifier (x, _ := ...,
// _ = ...) and calling such a function as a bare statement. Deferred calls
// are exempt (the deferred-Close idiom); so are test files, which the
// loader never parses.
var ErrDropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc: "errors from decompressors, device I/O, the index, the cuckoo " +
		"table, and the core engine must not be discarded",
	Run: runErrDrop,
}

// errCriticalSegments are the internal packages whose errors must be
// handled.
var errCriticalSegments = map[string]bool{
	"lzah":    true,
	"lz4":     true,
	"lzrw":    true,
	"storage": true,
	"cuckoo":  true,
	"index":   true,
	"core":    true,
}

// mustCheckCall reports whether the call returns an error that this
// analyzer insists on, i.e. the callee is declared in an error-critical
// package and its last result is an error.
func mustCheckCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if !errCriticalSegments[internalSegment(fn.Pkg().Path())] {
		return false
	}
	return lastResultIsError(pass.Pkg.Info, call)
}

func runErrDrop(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := unparen(stmt.X).(*ast.CallExpr); ok && mustCheckCall(pass, call) {
					fn := calleeFunc(info, call)
					pass.Reportf(call.Pos(),
						"error from %s.%s dropped: codec/device/index errors must be handled",
						fn.Pkg().Name(), fn.Name())
				}
				return true
			case *ast.AssignStmt:
				// x, _ := pkg.F() — the blank in the error position.
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := unparen(stmt.Rhs[0]).(*ast.CallExpr)
				if !ok || !mustCheckCall(pass, call) {
					return true
				}
				last := stmt.Lhs[len(stmt.Lhs)-1]
				if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
					fn := calleeFunc(info, call)
					pass.Reportf(stmt.Pos(),
						"error from %s.%s assigned to the blank identifier: codec/device/index errors must be handled",
						fn.Pkg().Name(), fn.Name())
				}
				return true
			}
			return true
		})
	}
}
