package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"
)

// PaperConstAnalyzer enforces paper-constant provenance: the 200 MHz
// clock, the datapath and tokenizer widths, the pipeline count, the
// index-tree geometry and the link bandwidths are defined once, in
// internal/hwsim. A re-declared literal is a fork: when one copy is tuned
// (an ablation, a bugfix) the others silently keep deriving Fig. 13/14
// numbers from the old model. A duplicate with the same value moves no
// simulated number, so no golden can catch it.
var PaperConstAnalyzer = &Analyzer{
	Name: "paperconst",
	Doc: "the paper's constants are referenced from internal/hwsim, " +
		"never re-typed as literals in the engine packages",
	Run: runPaperConst,
}

// paperConstSegments are the internal packages checked: the engine and
// hot-path packages whose geometry must match the model. hwsim, the
// authority, is not among them.
var paperConstSegments = map[string]bool{
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

// runPaperConst reports two classes:
//
//   - distinctive values (200e6, 4.8e9, 3.1e9, 7e9) are flagged wherever
//     a literal spells them — there is no innocent reason to write the
//     prototype's clock inline;
//   - ambiguous values (16, 2, 8, 4) are flagged only when a package-level
//     constant whose NAME claims the paper concept (WordSize,
//     LeafEntries, BytesPerCycle, Pipelines, ...) is initialized from a
//     bare literal instead of the hwsim symbol.
func runPaperConst(pass *Pass) {
	if !paperConstSegments[internalSegment(pass.Pkg.Path)] {
		return
	}
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
