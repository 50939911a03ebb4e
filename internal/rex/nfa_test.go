package rex

import (
	"regexp"
	"strings"
	"testing"
)

// nfaModel is the reference the lazy DFA is checked against: the standard
// two-list Thompson simulation over the same compiled states, O(len(input)
// × states), re-seeding the start state at every offset.
type nfaModel struct {
	states       []state
	start        int32
	clist, nlist []int32
	onList       []uint32
	gen          uint32
}

func newNFAModel(re *Regexp) *nfaModel {
	return &nfaModel{states: re.dfa.states, start: re.dfa.entry, onList: make([]uint32, len(re.dfa.states))}
}

func (m *nfaModel) match(input []byte) bool {
	m.clist = m.clist[:0]
	m.nextGen()
	m.addState(&m.clist, m.start, 0, len(input))
	if m.containsMatch(m.clist) {
		return true
	}
	for pos, c := range input {
		m.nlist = m.nlist[:0]
		m.nextGen()
		for _, si := range m.clist {
			if st := &m.states[si]; st.consumes(c) {
				m.addState(&m.nlist, st.out, pos+1, len(input))
			}
		}
		m.addState(&m.nlist, m.start, pos+1, len(input))
		m.clist, m.nlist = m.nlist, m.clist
		if m.containsMatch(m.clist) {
			return true
		}
	}
	return false
}

func (m *nfaModel) nextGen() {
	m.gen++
	if m.gen == 0 {
		clear(m.onList)
		m.gen = 1
	}
}

// addState adds a state and its epsilon closure to the list.
func (m *nfaModel) addState(list *[]int32, si int32, pos, inputLen int) {
	if si < 0 || m.onList[si] == m.gen {
		return
	}
	m.onList[si] = m.gen
	st := &m.states[si]
	switch st.op {
	case opSplit:
		m.addState(list, st.out, pos, inputLen)
		m.addState(list, st.out1, pos, inputLen)
		return
	case opBOL:
		if pos == 0 {
			m.addState(list, st.out, pos, inputLen)
		}
		return
	case opEOL:
		if pos == inputLen {
			m.addState(list, st.out, pos, inputLen)
		}
		return
	}
	*list = append(*list, si)
}

func (m *nfaModel) containsMatch(list []int32) bool {
	for _, si := range list {
		if m.states[si].op == opMatch {
			return true
		}
	}
	return false
}

// printable maps arbitrary bytes onto printable ASCII plus tab: the inputs
// on which rex and Go's regexp agree for every pattern goComparable
// accepts (\s differs on \v, and '.' on invalid UTF-8).
func printable(in string) []byte {
	out := make([]byte, len(in))
	for i := 0; i < len(in); i++ {
		if v := in[i] % 96; v == 95 {
			out[i] = '\t'
		} else {
			out[i] = ' ' + v
		}
	}
	return out
}

// goComparable reports whether rex and Go's regexp read pattern alike: it
// is ASCII, has no '{' (a repeat count in Go, a literal in rex) and no
// "[:" (a POSIX class in Go), and escapes no letter or digit other than
// those both grammars give one meaning.
func goComparable(pattern string) bool {
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c >= 0x80 || c == '{':
			return false
		case c == '[' && strings.HasPrefix(pattern[i+1:], ":"):
			return false
		case c == '\\' && i+1 < len(pattern):
			i++
			e := pattern[i]
			alnum := e >= 'a' && e <= 'z' || e >= 'A' && e <= 'Z' || e >= '0' && e <= '9'
			if alnum && !strings.ContainsRune("dDwWsSntr", rune(e)) {
				return false
			}
		}
	}
	return true
}

// FuzzDFAMatchesNFA pins the lazy DFA, with and without the literal gate,
// to the NFA model on arbitrary patterns and inputs, and to Go's regexp on
// printable inputs wherever both grammars read the pattern alike.
func FuzzDFAMatchesNFA(f *testing.F) {
	f.Add(`^a|b`, "xb")
	f.Add(`(x|y)*z$`, "xyxyz")
	f.Add(`$^`, "")
	f.Add(`a$|^b`, "ba\nb")
	f.Add(`[ab]*a[ab][ab][ab]`, "abbbabab")
	f.Add(` (lustre recovery|NFS server not) `, "x NFS server not y")
	f.Add(`core\.[0-9]+`, "dump core.123 written")
	f.Fuzz(func(t *testing.T, pattern, input string) {
		re, err := Compile(pattern)
		if err != nil {
			return
		}
		model := newNFAModel(re)
		for _, in := range [][]byte{[]byte(input), printable(input)} {
			want := model.match(in)
			if got := re.dfa.match(in); got != want {
				t.Fatalf("pattern %q input %q: DFA %v, NFA model %v", pattern, in, got, want)
			}
			if got := re.Match(in); got != want {
				t.Fatalf("pattern %q input %q: gated Match %v, NFA model %v (gate %q)", pattern, in, got, want, re.gate)
			}
		}
		if !goComparable(pattern) {
			return
		}
		std, err := regexp.Compile(pattern)
		if err != nil {
			return
		}
		in := printable(input)
		if got, want := re.Match(in), std.Match(in); got != want {
			t.Fatalf("pattern %q input %q: rex %v, Go regexp %v", pattern, in, got, want)
		}
	})
}
