package rex

import (
	"bytes"
	"slices"
	"sort"
	"strings"
)

// Literal-factor extraction: derive, from a pattern, a set of tokens that
// every matching line is guaranteed to contain — the prefilter contract
// that lets the engine probe the inverted index instead of scanning every
// page ("Regular Expression Indexing for Log Analysis" adapted from
// trigram indexes to this system's exact-token index).
//
// The result is in disjunctive normal form: a line matching the pattern
// satisfies at least one conjunct, and satisfying a conjunct means the
// line contains every one of its tokens as a complete, delimiter-bounded
// token. Because the engine's tokenizer splits lines on space and tab
// only, a literal run inside the pattern is a required token only when
// the pattern forces a delimiter (or a line anchor) on BOTH sides of it:
// the pattern `ERROR` matches the line "XERROR ..." which contains no
// token "ERROR", so an unbounded run must never become a factor. When no
// bounded run survives, extraction reports an honest ∅ (Usable() ==
// false) and the caller falls back to a full scan. Over-approximation
// (returning fewer or weaker factors) is always sound; extraction never
// under-approximates.

// FactorDelimiters are the byte values the engine's tokenizer treats as
// token separators. They must match query.Delimiters; factors_test pins
// the agreement.
const FactorDelimiters = " \t"

const (
	// maxFactorAlts caps the DNF width. Constructs that would exceed it
	// (wide alternations, nested optionals) collapse to "no information",
	// which is sound.
	maxFactorAlts = 16
	// minFactorToken is the shortest literal run worth probing the index
	// for; shorter runs behave like stop words and are dropped from their
	// conjunct (dropping a required token only weakens the filter).
	minFactorToken = 3
)

// Factors is a pattern's required-token set in DNF.
type Factors struct {
	// Conjuncts is the disjunction: any matching line contains every
	// token of at least one conjunct. Tokens are delimiter-free and
	// sorted within each conjunct.
	Conjuncts [][]string
}

// Usable reports whether the factors can prune anything: at least one
// conjunct, and no empty conjunct (an empty conjunct asserts nothing, so
// its disjunction covers every line).
func (f Factors) Usable() bool {
	if len(f.Conjuncts) == 0 {
		return false
	}
	for _, c := range f.Conjuncts {
		if len(c) == 0 {
			return false
		}
	}
	return true
}

// LiteralFactors extracts the required-token set of a pattern. Malformed
// patterns (or patterns with no bounded literal runs) yield an unusable
// set; they never yield an error because the caller always holds a
// separately compiled Regexp.
func LiteralFactors(pattern string) Factors {
	tree, err := parsePattern(pattern)
	if err != nil {
		return Factors{}
	}
	alts := analyze(tree)
	f := Factors{Conjuncts: make([][]string, 0, len(alts))}
	seen := make(map[string]bool, len(alts))
	for _, a := range alts {
		conj := tokensFromTemplate(a)
		key := strings.Join(conj, "\x00")
		if seen[key] {
			continue
		}
		seen[key] = true
		f.Conjuncts = append(f.Conjuncts, conj)
	}
	return f
}

// maxGateLiterals caps the literals of Match's gate: a line the gate
// rejects is searched once per literal.
const maxGateLiterals = 4

// gateLiterals derives Match's required-literal gate from the same
// templates LiteralFactors reads: for each alternative, its longest run of
// known bytes. A run of segByte is contiguous matched text, so every line
// the pattern matches contains the run of the alternative it follows — and
// unlike a factor token, a run needs no delimiter on either side, so
// patterns with no usable factors get a gate too. It returns nil (no gate)
// when some alternative has no run of minFactorToken bytes or the distinct
// runs number more than maxGateLiterals.
func gateLiterals(tree *astNode) [][]byte {
	var lits [][]byte
	for _, t := range analyze(tree) {
		run := longestRun(t)
		if len(run) < minFactorToken {
			return nil
		}
		if !slices.ContainsFunc(lits, func(l []byte) bool { return bytes.Equal(l, run) }) {
			lits = append(lits, run)
		}
	}
	if len(lits) > maxGateLiterals {
		return nil
	}
	return lits
}

// longestRun returns the first longest run of segByte in a template.
func longestRun(t template) []byte {
	bestAt, bestLen, at := 0, 0, 0
	for i, s := range t {
		if s.kind != segByte {
			at = i + 1
			continue
		}
		if n := i + 1 - at; n > bestLen {
			bestAt, bestLen = at, n
		}
	}
	run := make([]byte, bestLen)
	for i := range run {
		run[i] = t[bestAt+i].b
	}
	return run
}

// The analysis abstracts each way a subpattern can match as a "template":
// a sequence of segments that the matched text is guaranteed to follow.
type segKind uint8

const (
	// segByte: the matched text has one known non-delimiter byte here.
	segByte segKind = iota
	// segBound: a mandatory token boundary — a matched delimiter byte, or
	// a zero-width line anchor (^ / $). Matching is per line, so anchors
	// bound tokens exactly like delimiters do.
	segBound
	// segGap: zero or more bytes about which nothing is known.
	segGap
)

type seg struct {
	kind segKind
	b    byte
}

// template is one match alternative of a subpattern.
type template []seg

// giveUp is the sound "no information" abstraction: a single alternative
// that is all gap. Any extraction from it yields an empty conjunct.
func giveUp() []template { return []template{{seg{kind: segGap}}} }

func isFactorDelim(b byte) bool { return b == ' ' || b == '\t' }

// analyze returns templates covering every way n can match: whichever
// alternative the NFA takes, the matched text follows at least one of the
// returned templates.
func analyze(n *astNode) []template {
	switch n.op {
	case astEmpty:
		return []template{{}}
	case astChar:
		if isFactorDelim(n.c) {
			return []template{{seg{kind: segBound}}}
		}
		return []template{{seg{kind: segByte, b: n.c}}}
	case astClass:
		return classTemplates(n.class)
	case astAny:
		// '.' may match a delimiter or not; only "some byte" is known,
		// and a gap covers that.
		return giveUp()
	case astBOL, astEOL:
		return []template{{seg{kind: segBound}}}
	case astCat:
		alts := []template{{}}
		for _, sub := range n.subs {
			salts := analyze(sub)
			if len(alts)*len(salts) > maxFactorAlts {
				return giveUp()
			}
			next := make([]template, 0, len(alts)*len(salts))
			for _, a := range alts {
				for _, s := range salts {
					t := make(template, 0, len(a)+len(s))
					t = append(append(t, a...), s...)
					next = append(next, t)
				}
			}
			alts = next
		}
		return alts
	case astAlt:
		var alts []template
		for _, sub := range n.subs {
			alts = append(alts, analyze(sub)...)
			if len(alts) > maxFactorAlts {
				return giveUp()
			}
		}
		return alts
	case astQuest:
		alts := append([]template{{}}, analyze(n.subs[0])...)
		if len(alts) > maxFactorAlts {
			return giveUp()
		}
		return alts
	case astStar, astPlus:
		return analyzeRepeat(n)
	}
	return giveUp()
}

// analyzeRepeat abstracts X+ as "one match of X, then unknown repeats"
// — each of X's templates followed by a gap — except that a pure run of
// boundaries repeated is still a boundary (` +` forces a delimiter just
// as ` ` does). X* adds the empty alternative.
func analyzeRepeat(n *astNode) []template {
	sub := analyze(n.subs[0])
	alts := make([]template, 0, len(sub)+1)
	if n.op == astStar {
		alts = append(alts, template{})
	}
	for _, a := range sub {
		if isPureBound(a) {
			alts = append(alts, template{seg{kind: segBound}})
			continue
		}
		t := make(template, 0, len(a)+1)
		t = append(append(t, a...), seg{kind: segGap})
		alts = append(alts, t)
	}
	if len(alts) > maxFactorAlts {
		return giveUp()
	}
	return alts
}

// isPureBound reports whether a template is one or more boundaries and
// nothing else — i.e. the subpattern can only ever match delimiter text.
func isPureBound(a template) bool {
	if len(a) == 0 {
		return false
	}
	for _, s := range a {
		if s.kind != segBound {
			return false
		}
	}
	return true
}

// classTemplates abstracts one byte drawn from a class. Small classes
// are enumerated as alternatives so patterns like `[EW]ARN ` keep their
// factors; a class that can only match delimiters is a boundary; anything
// wider is a gap.
func classTemplates(bc *byteClass) []template {
	var members []byte
	for b := 0; b < 256; b++ {
		if bc.contains(byte(b)) {
			members = append(members, byte(b))
			if len(members) > 4 {
				return giveUp()
			}
		}
	}
	if len(members) == 0 {
		// Matches no byte at all: the subpattern (and anything
		// concatenated with it) can never match. A gap is still sound.
		return giveUp()
	}
	allDelim := true
	for _, b := range members {
		if !isFactorDelim(b) {
			allDelim = false
			break
		}
	}
	if allDelim {
		return []template{{seg{kind: segBound}}}
	}
	alts := make([]template, 0, len(members))
	for _, b := range members {
		if isFactorDelim(b) {
			alts = append(alts, template{seg{kind: segBound}})
		} else {
			alts = append(alts, template{seg{kind: segByte, b: b}})
		}
	}
	return alts
}

// tokensFromTemplate extracts the guaranteed tokens of one alternative:
// maximal known-byte runs bounded by segBound on BOTH sides. The start
// and end of the template are not boundaries (an unanchored pattern can
// begin or end mid-token), and a gap destroys the bound on each side.
func tokensFromTemplate(a template) []string {
	var toks []string
	var run []byte
	leftBound := false
	flush := func(rightBound bool) {
		if leftBound && rightBound && len(run) >= minFactorToken {
			toks = append(toks, string(run))
		}
		run = run[:0]
	}
	for _, s := range a {
		switch s.kind {
		case segByte:
			run = append(run, s.b)
		case segBound:
			flush(true)
			leftBound = true
		case segGap:
			flush(false)
			leftBound = false
		}
	}
	flush(false)
	sort.Strings(toks)
	// Dedupe: repeated tokens add nothing to the conjunction.
	out := toks[:0]
	for i, t := range toks {
		if i == 0 || t != toks[i-1] {
			out = append(out, t)
		}
	}
	return out
}
