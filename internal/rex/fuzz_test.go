package rex

import (
	"strings"
	"testing"
)

// FuzzCompileAndMatch asserts the regex engine neither panics nor hangs
// on arbitrary patterns and inputs.
func FuzzCompileAndMatch(f *testing.F) {
	f.Add(`a*b+c?`, "aabbc")
	f.Add(`[a-z]+\d*`, "abc123")
	f.Add(`(x|y)*z$`, "xyxyz")
	f.Add(`\`, "")
	f.Fuzz(func(t *testing.T, pattern, input string) {
		re, err := Compile(pattern)
		if err != nil {
			return
		}
		_ = re.MatchString(input)
	})
}

// FuzzLiteralFactors asserts the prefilter contract on arbitrary
// patterns and inputs: extraction never panics, never emits tokens the
// engine's tokenizer could not index (empty or delimiter-containing),
// and never under-approximates — any line rex matches must contain every
// token of some satisfied conjunct. Over-approximation is fine (the DFA
// verifies survivors); a violation here would make the index prefilter
// silently drop matches. The same holds for Match's literal gate: any line
// the ungated DFA matches contains one of the gate's literals.
func FuzzLiteralFactors(f *testing.F) {
	f.Add(` ERROR (conn|sock) timeout.*`, " ERROR sock timeout now")
	f.Add(`^ERROR: .*`, "XERROR conn timeout")
	f.Add(` +[EW]ARN( details)? `, "prefix WARN details suffix")
	f.Add(`\d+ fault`, "- 42 page fault ")
	f.Add("\tFATAL\t", "col\tFATAL\tcol")
	f.Add(`core\.[0-9]+`, "dump core.42\ncore")
	f.Fuzz(func(t *testing.T, pattern, input string) {
		if re, err := Compile(pattern); err == nil && re.gate != nil {
			for _, line := range strings.Split(input, "\n") {
				if re.dfa.match([]byte(line)) && !containsAny([]byte(line), re.gate) {
					t.Fatalf("pattern %q matches line %q, which holds none of the gate literals %q",
						pattern, line, re.gate)
				}
			}
		}
		factors := LiteralFactors(pattern)
		for _, conj := range factors.Conjuncts {
			for _, tok := range conj {
				if tok == "" || strings.ContainsAny(tok, FactorDelimiters) {
					t.Fatalf("pattern %q: factor token %q is not indexable", pattern, tok)
				}
			}
		}
		if !factors.Usable() {
			return
		}
		re, err := Compile(pattern)
		if err != nil {
			// Extraction of a malformed pattern must be unusable.
			t.Fatalf("pattern %q: uncompilable yet factors usable: %v", pattern, factors.Conjuncts)
		}
		// Factor soundness is a per-line guarantee; the engine evaluates
		// patterns against newline-split lines, so the fuzz input is
		// split the same way.
		for _, line := range strings.Split(input, "\n") {
			if re.MatchString(line) && !factorsSatisfied(factors, line) {
				t.Fatalf("pattern %q matches line %q but no conjunct of %v is satisfied",
					pattern, line, factors.Conjuncts)
			}
		}
	})
}
