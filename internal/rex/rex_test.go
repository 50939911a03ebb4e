package rex

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicMatching(t *testing.T) {
	cases := []struct {
		pattern, input string
		want           bool
	}{
		{"abc", "abc", true},
		{"abc", "xxabcxx", true},
		{"abc", "ab", false},
		{"a.c", "abc", true},
		{"a.c", "a\nc", false},
		{"a*", "", true},
		{"a+", "", false},
		{"a+", "baac", true},
		{"ab?c", "ac", true},
		{"ab?c", "abc", true},
		{"ab?c", "abbc", false},
		{"a|b", "zzbzz", true},
		{"a|b", "zzz", false},
		{"(ab)+", "ababab", true},
		{"(ab)+c", "abac", false},
		{"^abc", "abcde", true},
		{"^abc", "zabc", false},
		{"abc$", "zzabc", true},
		{"abc$", "abcz", false},
		{"^abc$", "abc", true},
		{"^abc$", "abcd", false},
		{"^$", "", true},
		{"^$", "x", false},
		// A leading ^ anchors only its own alternative.
		{"^a|b", "xb", true},
		{"^a|b", "a", true},
		{"^a|b", "xa", false},
		{"(^a)|b", "xb", true},
		{"b|^a", "xb", true},
		{"b|^a", "xa", false},
	}
	for _, c := range cases {
		re, err := Compile(c.pattern)
		if err != nil {
			t.Fatalf("compile %q: %v", c.pattern, err)
		}
		if got := re.MatchString(c.input); got != c.want {
			t.Errorf("%q on %q = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestClasses(t *testing.T) {
	cases := []struct {
		pattern, input string
		want           bool
	}{
		{"[abc]", "zbz", true},
		{"[abc]", "zdz", false},
		{"[a-z]+", "hello", true},
		{"[a-z]+", "12345", false},
		{"[^a-z]", "abcX", true},
		{"[^a-z]", "abc", false},
		{"[0-9a-f]+", "deadbeef42", true},
		{"[-a]", "-", true},
		{"[a-]", "-", true},
		{`[\]]`, "]", true},
		{`[\d]+`, "x42", true},
		{`\d+`, "abc123", true},
		{`\d+`, "abc", false},
		{`\w+`, "under_score9", true},
		{`\W`, "a_b9", false},
		{`\s`, "a b", true},
		{`\S+`, "   x", true},
		{`\.`, "a.b", true},
		{`\.`, "ab", false},
		{`\t`, "a\tb", true},
	}
	for _, c := range cases {
		re, err := Compile(c.pattern)
		if err != nil {
			t.Fatalf("compile %q: %v", c.pattern, err)
		}
		if got := re.MatchString(c.input); got != c.want {
			t.Errorf("%q on %q = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestLogPatterns(t *testing.T) {
	// The kind of patterns log exploration uses (§8's regex target).
	line := "- 1131564665 2005.11.09 dn228 Nov 9 12:11:05 dn228/dn228 ib_sm.x[24426]: [ib_sm_sweep.c:1455]: No topology change"
	for pattern, want := range map[string]bool{
		`ib_sm\.x\[\d+\]:`:       true,
		`dn\d+/dn\d+`:            true,
		`\d\d\d\d\.\d\d\.\d\d`:   true,
		`(FATAL|ERROR|FAILURE)`:  false,
		`topology (change|loss)`: true,
		`^- \d+`:                 true,
	} {
		re := MustCompile(pattern)
		if got := re.MatchString(line); got != want {
			t.Errorf("%q = %v, want %v", pattern, got, want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	for _, pattern := range []string{
		"(", ")", "a(b", "a)b", "[", "[a", "*a", "+", "?", "a**", "", "a|*", `\`, `[\`, "[z-a]",
	} {
		if _, err := Compile(pattern); err == nil {
			// "" and "a**"? "" compiles to empty match-everything: allow.
			// "a**" is a dangling quantifier on a quantifier: our grammar
			// treats the second '*' as dangling.
			if pattern == "" {
				continue
			}
			t.Errorf("Compile(%q) should fail", pattern)
		}
	}
}

func TestEmptyPatternMatchesEverything(t *testing.T) {
	re, err := Compile("")
	if err != nil {
		t.Fatal(err)
	}
	if !re.MatchString("") || !re.MatchString("anything") {
		t.Fatal("empty pattern should match everything")
	}
}

func TestPathologicalNoBacktracking(t *testing.T) {
	// The classic (a+)+ killer for backtracking engines: linear here.
	re := MustCompile("(a+)+b")
	input := make([]byte, 0, 64)
	for i := 0; i < 40; i++ {
		input = append(input, 'a')
	}
	input = append(input, 'c') // no match, worst case
	if re.Match(input) {
		t.Fatal("should not match")
	}
	if !re.Match(append(input[:40], 'b')) {
		t.Fatal("should match")
	}
}

func TestRegexpReuse(t *testing.T) {
	re := MustCompile(`\d+`)
	for i := 0; i < 100; i++ {
		if !re.MatchString("x123") || re.MatchString("xyz") {
			t.Fatal("reuse corrupted state")
		}
	}
}

func TestQuickAgainstStdlib(t *testing.T) {
	// Property: on a shared syntax subset, rex agrees with regexp/syntax.
	patterns := []string{
		`abc`, `a.c`, `a*b`, `a+b`, `ab?c`, `(ab|cd)+`, `[a-f]+\d*`,
		`^x[0-9]+$`, `\w+@\w+`, `err(or)?s?`, `[^ ]+:[0-9]+`,
	}
	res := make([]*Regexp, len(patterns))
	stds := make([]*regexp.Regexp, len(patterns))
	for i, p := range patterns {
		res[i] = MustCompile(p)
		stds[i] = regexp.MustCompile(p)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		buf := make([]byte, n)
		const alphabet = "abcdef0123456789 :@._x"
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		for i := range patterns {
			if res[i].Match(buf) != stds[i].Match(buf) {
				t.Logf("seed %d: pattern %q input %q: rex=%v std=%v",
					seed, patterns[i], buf, res[i].Match(buf), stds[i].Match(buf))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDFACacheOverflow runs a pattern whose DFA has 2^15 states, far more
// than dfaCacheBudget holds, over random a/b lines: answers must stay
// Go's across cache flushes, and the cache must stay within its budget.
func TestDFACacheOverflow(t *testing.T) {
	pattern := "[ab]*a" + strings.Repeat("[ab]", 14) + "$"
	re := MustCompile(pattern)
	std := regexp.MustCompile(pattern)
	rng := rand.New(rand.NewSource(1))
	line := make([]byte, 0, 4096)
	for i := 0; i < 3000; i++ {
		n := rng.Intn(64)
		if i%100 == 0 {
			n = 4096
		}
		line = line[:0]
		for j := 0; j < n; j++ {
			line = append(line, "ab"[rng.Intn(2)])
		}
		if got, want := re.Match(line), std.Match(line); got != want {
			t.Fatalf("line %d (%q): rex %v, Go regexp %v", i, line, got, want)
		}
		if re.dfa.bytes > dfaCacheBudget {
			t.Fatalf("line %d: DFA cache holds %d bytes, budget %d", i, re.dfa.bytes, dfaCacheBudget)
		}
	}
	if re.dfa.flushes == 0 {
		t.Fatalf("the DFA cache never flushed (%d bytes cached)", re.dfa.bytes)
	}
	t.Logf("%d flushes", re.dfa.flushes)
}

// TestMatchZeroAllocs pins Match's steady state: once a line's states and
// transitions are cached, matching it again allocates nothing, whether the
// gate rejects it, the DFA rejects it, or the DFA accepts it.
func TestMatchZeroAllocs(t *testing.T) {
	for _, c := range []struct{ pattern, line string }{
		{` ECC error at address 0x[0-9a-f]+`, "RAS KERNEL FATAL ECC error at address 0x1f2e3d"},
		{` ECC error at address 0x[0-9a-f]+`, "RAS KERNEL INFO instruction cache parity error corrected"},
		{` ECC error at address 0x[0-9a-f]+`, "RAS KERNEL INFO ECC error at address 0xZZ"},
		{`[0-9]+\.[0-9]+`, "- 1131564665 2005.11.09 dn228 Nov 9 12:11:05"},
		{`[0-9]+\.[0-9]+`, "no decimal number on this line"},
	} {
		re := MustCompile(c.pattern)
		line := []byte(c.line)
		re.Match(line)
		if allocs := testing.AllocsPerRun(100, func() { re.Match(line) }); allocs != 0 {
			t.Errorf("%q on %q: %v allocs per Match, want 0", c.pattern, c.line, allocs)
		}
	}
}

func BenchmarkMatchLogLine(b *testing.B) {
	re := MustCompile(`ib_sm\.x\[\d+\]:`)
	line := []byte("- 1131564665 2005.11.09 dn228 Nov 9 12:11:05 dn228/dn228 ib_sm.x[24426]: [ib_sm_sweep.c:1455]: No topology change")
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re.Match(line)
	}
}
