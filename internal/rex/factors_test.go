package rex

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"mithrilog/internal/query"
)

func TestFactorDelimitersMatchQuery(t *testing.T) {
	if FactorDelimiters != query.Delimiters {
		t.Fatalf("FactorDelimiters %q != query.Delimiters %q — factor soundness depends on the tokenizer's delimiter set",
			FactorDelimiters, query.Delimiters)
	}
}

func TestLiteralFactors(t *testing.T) {
	cases := []struct {
		pattern string
		want    [][]string // nil means unusable
	}{
		// Bounded literal runs become tokens.
		{` ERROR `, [][]string{{"ERROR"}}},
		{`^ERROR `, [][]string{{"ERROR"}}},
		{` ERROR$`, [][]string{{"ERROR"}}},
		{`^ERROR$`, [][]string{{"ERROR"}}},
		{` data storage interrupt `, [][]string{{"data", "interrupt", "storage"}}},
		// Unbounded runs must NOT become tokens: "XERROR conn" matches
		// `ERROR conn ` but contains no token "ERROR".
		{`ERROR conn `, [][]string{{"conn"}}},
		{` conn timeout`, [][]string{{"conn"}}},
		{`ERROR`, nil},
		// Alternation distributes (DNF).
		{` (conn|sock) timeout `, [][]string{{"conn", "timeout"}, {"sock", "timeout"}}},
		{` ERROR | WARN `, [][]string{{"ERROR"}, {"WARN"}}},
		// A branch with no factor poisons the whole disjunction.
		{` ERROR |x`, nil},
		// '.' and classes break bounds; trailing .* is harmless after a
		// delimiter-bounded run.
		{`^ERROR: .*`, [][]string{{"ERROR:"}}},
		{` ERROR.`, nil},                      // "ERROR" unbounded on the right
		{` ERROR. `, nil},                     // '.' may be a non-delimiter byte
		{` ERR.OR `, nil},                     // gap splits the run; halves unbounded
		{` ERROR\. `, [][]string{{"ERROR."}}}, // escaped dot is a literal
		// \s may match bytes the tokenizer does not split on (\r \f \v),
		// so it is not a boundary.
		{`\sERROR\s`, nil},
		// Repeats: one-or-more of a delimiter is still a boundary;
		// optional groups void their factors but not their siblings'.
		{` +ERROR +`, [][]string{{"ERROR"}}},
		{` ERROR( details)? `, [][]string{{"ERROR"}, {"ERROR", "details"}}},
		// In the repeated branch the gap after "retry " unbounds "final",
		// so that branch keeps only {retry}.
		{` (retry )*final `, [][]string{{"final"}, {"retry"}}},
		// Short runs are dropped (stop-word-like), emptying the conjunct.
		{` at `, nil},
		{` at EOF `, [][]string{{"EOF"}}},
		// Small classes enumerate.
		{` [EW]ARN `, [][]string{{"EARN"}, {"WARN"}}},
		{` kernel[:;] `, [][]string{{"kernel:"}, {"kernel;"}}},
		// Wide constructs give up honestly.
		{`\d+`, nil},
		{`.*`, nil},
		{``, nil},
		{`[a-z]+ ERROR `, [][]string{{"ERROR"}}},
		// Tab is a delimiter too.
		{"\tFATAL\t", [][]string{{"FATAL"}}},
		{`\tFATAL\t`, [][]string{{"FATAL"}}},
	}
	for _, tc := range cases {
		f := LiteralFactors(tc.pattern)
		if tc.want == nil {
			if f.Usable() {
				t.Errorf("LiteralFactors(%q) = %v, want unusable", tc.pattern, f.Conjuncts)
			}
			continue
		}
		got := normalizeConjuncts(f.Conjuncts)
		want := normalizeConjuncts(tc.want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("LiteralFactors(%q) = %v, want %v", tc.pattern, got, want)
		}
	}
}

// normalizeConjuncts sorts the conjuncts (tokens inside each are already
// sorted by extraction) so comparisons ignore alternative order, and maps
// an empty set to a canonical form.
func normalizeConjuncts(cs [][]string) []string {
	out := make([]string, 0, len(cs))
	for _, c := range cs {
		out = append(out, strings.Join(c, " "))
	}
	// Insertion sort keeps this dependency-free and stable for tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestGateLiterals pins the literal gates of the benchmark's regex_grep
// patterns — including the no-factor fallback — and a gate-free pattern.
func TestGateLiterals(t *testing.T) {
	cases := []struct {
		pattern string
		want    []string // nil means no gate
	}{
		{`core\.[0-9]+`, []string{"core."}},
		{` ECC error at address 0x[0-9a-f]+`, []string{"address"}},
		{` (lustre recovery|NFS server not) `, []string{"recovery", "server"}},
		{` connection refused from `, []string{"connection"}},
		{`[0-9]+\.[0-9]+`, nil},
		{`^a|b`, nil},
		{`(ab|cd|ef|gh|ij) xyz`, []string{"xyz"}}, // five alternatives, one longest run
		{`abc(d|e|f|g|h)`, nil},                   // five distinct runs
		{`ab.cd`, nil},                            // runs shorter than minFactorToken
	}
	for _, tc := range cases {
		var got []string
		for _, l := range MustCompile(tc.pattern).gate {
			got = append(got, string(l))
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("gate of %q = %q, want %q", tc.pattern, got, tc.want)
		}
	}
}

func TestLiteralFactorsMalformed(t *testing.T) {
	for _, pattern := range []string{`(`, `a**`, `[a-`, `\`, `a)`, `[z-a]`} {
		if f := LiteralFactors(pattern); f.Usable() {
			t.Errorf("LiteralFactors(%q) usable on malformed pattern: %v", pattern, f.Conjuncts)
		}
	}
}

// TestFactorsSound is the unit-level statement of the prefilter contract:
// for a corpus of tricky line/pattern pairs, whenever rex matches a line,
// some conjunct's tokens must all be present as complete tokens.
func TestFactorsSound(t *testing.T) {
	patterns := []string{
		` ERROR `, `ERROR`, ` (conn|sock) timeout `, `^ERROR: .*`,
		` +ERROR +`, ` ERROR( details)? `, ` [EW]ARN `, ` at EOF `,
		`\sERROR\s`, ` ERROR.`, ` (retry )*final `, `kernel: [a-z]+ fault `,
		`^- \d+ .* RAS KERNEL `, ` data TLB error `, "\tFATAL\t",
	}
	lines := []string{
		"XERROR conn timeout now",
		" ERROR sock timeout ",
		"prefix ERROR: something",
		"ERROR: at line start",
		"a  ERROR  b",
		" ERROR details ",
		" ERRORdetails ",
		" WARN level",
		" EARN money",
		"stack at EOF reached",
		"x\rERROR\ry carriage bounded",
		" ERROR. trailing",
		"retry retry final ",
		" final ",
		"kernel: page fault ",
		"- 42 x RAS KERNEL INFO",
		" data TLB error interrupt",
		"col\tFATAL\tcol",
	}
	for _, p := range patterns {
		re := MustCompile(p)
		f := LiteralFactors(p)
		if !f.Usable() {
			continue
		}
		for _, line := range lines {
			if !re.MatchString(line) {
				continue
			}
			if !factorsSatisfied(f, line) {
				t.Errorf("pattern %q matches line %q but no conjunct of %v is satisfied",
					p, line, f.Conjuncts)
			}
		}
	}
}

// factorsSatisfied reports whether some conjunct's tokens all appear in
// the line under the engine's tokenization.
func factorsSatisfied(f Factors, line string) bool {
	present := map[string]bool{}
	for _, tok := range strings.FieldsFunc(line, func(r rune) bool {
		return strings.ContainsRune(FactorDelimiters, r)
	}) {
		present[tok] = true
	}
	for _, conj := range f.Conjuncts {
		ok := true
		for _, tok := range conj {
			if !present[tok] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
