package lint

import (
	"go/ast"
	"go/types"
)

// HwPureAnalyzer enforces determinism where cycle counts are made: the
// whole of internal/hwsim, and every function in the functional engines
// (tokenizer, filter, lzah) that touches a cycle counter or calls hwsim's
// accounting API. The repository's performance claims are reproducible
// precisely because the datapath model is a pure function of its input
// bytes — the same page must cost the same cycles on every run, on every
// machine, in every test order. Wall-clock reads (time.Now, time.Since),
// math/rand, OS/network I/O, and map iteration (randomized order) inside
// those functions make cycle accounting depend on something other than
// the data, which turns Fig. 13/14 deltas into noise.
var HwPureAnalyzer = &Analyzer{
	Name: "hwpure",
	Doc: "internal/hwsim and the cycle-accounting paths of " +
		"tokenizer/filter/lzah stay deterministic: no wall clock, no " +
		"math/rand, no I/O, no map-iteration-order dependence",
	Run: runHwPure,
}

// hwPureEngineSegments are the engine packages whose cycle-accounting
// functions (but not the rest of the package) must be pure.
var hwPureEngineSegments = map[string]bool{
	"tokenizer": true,
	"filter":    true,
	"lzah":      true,
}

func runHwPure(pass *Pass) {
	allFuncs := pkgPathHasSuffix(pass.Pkg.Path, hwsimPath)
	if !allFuncs && !hwPureEngineSegments[internalSegment(pass.Pkg.Path)] {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !allFuncs && !touchesCycleAccounting(info, fd.Body) {
				continue
			}
			checkPurity(pass, fd)
		}
	}
}

// touchesCycleAccounting reports whether a body reads or writes a
// cycle-counter field, or calls into hwsim's accounting API — the
// condition that puts an engine function on the deterministic path.
func touchesCycleAccounting(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isCycleCounterField(info, n) {
				found = true
				return false
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil &&
				pkgPathHasSuffix(fn.Pkg().Path(), hwsimPath) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// impureTimeFuncs are the wall-clock entry points in package time.
var impureTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
	"Sleep": true,
}

// impurePkgs are packages whose mere use inside an accounting function is
// a finding (I/O and entropy).
func isImpurePkgPath(path string) bool {
	switch path {
	case "math/rand", "math/rand/v2", "crypto/rand", "os", "io/ioutil",
		"net", "net/http", "syscall":
		return true
	}
	return false
}

func checkPurity(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	fname := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "time" && impureTimeFuncs[fn.Name()]:
				pass.Reportf(n.Pos(),
					"%s is on the deterministic cycle-accounting path but reads the wall clock (time.%s); derive time from cycle counts via hwsim",
					fname, fn.Name())
			case isImpurePkgPath(fn.Pkg().Path()):
				pass.Reportf(n.Pos(),
					"%s is on the deterministic cycle-accounting path but calls %s.%s (nondeterminism/I/O)",
					fname, fn.Pkg().Name(), fn.Name())
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(n.Pos(),
					"%s is on the deterministic cycle-accounting path but iterates a map (randomized order); iterate sorted keys instead",
					fname)
			}
		}
		return true
	})
}
