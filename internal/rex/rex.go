// Package rex is a compact regular expression engine used for the
// paper's §8 extension target: "matching other template structures such
// as regular expressions". Patterns are compiled to a Thompson NFA, which
// a lazy DFA over byte classes executes (dfa.go): DFA states are built on
// first use and kept in a cache of bounded size, so matching is linear in
// the input with no backtracking — the same guarantee hardware regex
// accelerators (HARE [13], and the FPGA regex literature the paper cites)
// provide, which is what makes the software fallback's cost model
// predictable. Before the DFA runs, a required-literal gate rejects a
// line that contains none of the literal runs every match must contain.
//
// Supported syntax: literals, '.', character classes '[a-z0-9_]' with
// negation '[^...]', escapes (\d \w \s \. etc.), grouping '(...)',
// alternation '|', repetition '*', '+', '?', and anchors '^' and '$'.
// Matching is unanchored substring search unless anchors are used.
//
// Patterns are parsed to an AST (ast.go) that is shared by two
// consumers: the Thompson compiler below, and the template analysis in
// factors.go, which yields both the literal factors the engine uses to
// prefilter pages through the inverted index and the literals of the
// gate in Match.
package rex

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrSyntax reports a malformed pattern.
var ErrSyntax = errors.New("rex: syntax error")

// opcodes for NFA states.
type opcode uint8

const (
	opChar  opcode = iota // match one byte
	opClass               // match a byte class
	opAny                 // match any byte except newline
	opSplit               // epsilon split to out and out1
	opMatch               // accept
	opBOL                 // assert beginning of input
	opEOL                 // assert end of input
)

type state struct {
	op        opcode
	c         byte
	class     *byteClass
	out, out1 int32
}

// byteClass is a 256-bit membership set.
type byteClass struct {
	bits [4]uint64
	neg  bool
}

func (bc *byteClass) add(b byte) { bc.bits[b>>6] |= 1 << (b & 63) }

func (bc *byteClass) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		bc.add(byte(b))
	}
}

func (bc *byteClass) contains(b byte) bool {
	in := bc.bits[b>>6]&(1<<(b&63)) != 0
	return in != bc.neg
}

// consumes reports whether a byte-consuming state accepts c; assertion,
// split and match states consume nothing.
func (st *state) consumes(c byte) bool {
	switch st.op {
	case opChar:
		return st.c == c
	case opClass:
		return st.class.contains(c)
	case opAny:
		return c != '\n'
	}
	return false
}

// Regexp is a compiled pattern. Match keeps its DFA cache in the Regexp,
// so a Regexp is not safe for concurrent use.
type Regexp struct {
	pattern string
	// gate holds the literals of which every match contains at least one
	// (gateLiterals); nil when the pattern has no such set.
	gate [][]byte
	dfa  dfa
}

// Pattern returns the source pattern.
func (r *Regexp) Pattern() string { return r.pattern }

// Compile parses and compiles a pattern.
func Compile(pattern string) (*Regexp, error) {
	tree, err := parsePattern(pattern)
	if err != nil {
		return nil, err
	}
	c := &compiler{}
	frag := c.compile(tree)
	// Append the match state and patch the fragment's dangling arrows.
	match := c.add(state{op: opMatch})
	c.patch(frag.out, match)
	return &Regexp{
		pattern: pattern,
		gate:    gateLiterals(tree),
		dfa:     newDFA(c.states, frag.start),
	}, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(pattern string) *Regexp {
	re, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return re
}

// compiler lowers the AST to NFA states with Thompson construction.
type compiler struct {
	states []state
}

// frag is an NFA fragment: a start state and a list of dangling arrows to
// patch. Arrows are encoded as state*2 (out) or state*2+1 (out1).
type frag struct {
	start int32
	out   []int32
}

func (c *compiler) add(s state) int32 {
	c.states = append(c.states, s)
	return int32(len(c.states) - 1)
}

func (c *compiler) patch(arrows []int32, target int32) {
	for _, a := range arrows {
		if a&1 == 0 {
			c.states[a>>1].out = target
		} else {
			c.states[a>>1].out1 = target
		}
	}
}

func (c *compiler) single(s state) frag {
	si := c.add(s)
	return frag{start: si, out: []int32{si * 2}}
}

func (c *compiler) compile(n *astNode) frag {
	switch n.op {
	case astEmpty:
		// Empty alternative: a split with both arrows dangling acts as an
		// epsilon fragment (only the out arrow is ever patched; out1 stays
		// -1 and is ignored by the simulation).
		return c.single(state{op: opSplit, out: -1, out1: -1})
	case astChar:
		return c.single(state{op: opChar, c: n.c, out: -1})
	case astClass:
		return c.single(state{op: opClass, class: n.class, out: -1})
	case astAny:
		return c.single(state{op: opAny, out: -1})
	case astBOL:
		return c.single(state{op: opBOL, out: -1})
	case astEOL:
		return c.single(state{op: opEOL, out: -1})
	case astCat:
		cur := c.compile(n.subs[0])
		for _, sub := range n.subs[1:] {
			next := c.compile(sub)
			c.patch(cur.out, next.start)
			cur = frag{start: cur.start, out: next.out}
		}
		return cur
	case astAlt:
		left := c.compile(n.subs[0])
		right := c.compile(n.subs[1])
		split := c.add(state{op: opSplit, out: left.start, out1: right.start})
		return frag{start: split, out: append(left.out, right.out...)}
	case astStar:
		sub := c.compile(n.subs[0])
		split := c.add(state{op: opSplit, out: sub.start, out1: -1})
		c.patch(sub.out, split)
		return frag{start: split, out: []int32{split*2 + 1}}
	case astPlus:
		sub := c.compile(n.subs[0])
		split := c.add(state{op: opSplit, out: sub.start, out1: -1})
		c.patch(sub.out, split)
		return frag{start: sub.start, out: []int32{split*2 + 1}}
	case astQuest:
		sub := c.compile(n.subs[0])
		split := c.add(state{op: opSplit, out: sub.start, out1: -1})
		return frag{start: split, out: append(sub.out, split*2+1)}
	}
	panic(fmt.Sprintf("rex: unknown ast op %d", n.op))
}

// Match reports whether the pattern matches anywhere in b (or at the
// start/end when anchored).
func (r *Regexp) Match(b []byte) bool {
	if r.gate != nil && !containsAny(b, r.gate) {
		return false
	}
	return r.dfa.match(b)
}

// MatchString is Match over a string.
func (r *Regexp) MatchString(s string) bool {
	return r.Match([]byte(s))
}

// containsAny reports whether b contains at least one of lits.
func containsAny(b []byte, lits [][]byte) bool {
	for _, lit := range lits {
		if bytes.Contains(b, lit) {
			return true
		}
	}
	return false
}
