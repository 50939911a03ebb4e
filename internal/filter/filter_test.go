package filter

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mithrilog/internal/cuckoo"
	"mithrilog/internal/query"
	"mithrilog/internal/tokenizer"
)

func mustCompile(t testing.TB, q query.Query) *cuckoo.Table {
	t.Helper()
	tbl, err := cuckoo.Compile(q, cuckoo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func filterLine(t testing.TB, h *HashFilter, line string) bool {
	t.Helper()
	tk := tokenizer.New(2)
	words := tk.TokenizeLine(nil, []byte(line))
	keep, err := h.FeedLine(words)
	if err != nil {
		t.Fatal(err)
	}
	return keep
}

func TestHashFilterBasic(t *testing.T) {
	q := query.MustParse(`RAS AND KERNEL AND NOT FATAL`)
	h, err := NewHashFilter(mustCompile(t, q), len(q.Sets))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		line string
		want bool
	}{
		{"RAS KERNEL INFO fine", true},
		{"RAS KERNEL FATAL bad", false},
		{"KERNEL only here", false},
		{"RAS RAS KERNEL dup", true},
		{"", false},
	}
	for _, c := range cases {
		if got := filterLine(t, h, c.line); got != c.want {
			t.Errorf("filter(%q) = %v, want %v", c.line, got, c.want)
		}
	}
	if h.Lines() != uint64(len(cases)) {
		t.Errorf("lines = %d", h.Lines())
	}
	if h.Kept() != 2 {
		t.Errorf("kept = %d", h.Kept())
	}
}

func TestHashFilterUnion(t *testing.T) {
	q := query.MustParse(`(A AND B) OR (C AND NOT D)`)
	h, _ := NewHashFilter(mustCompile(t, q), len(q.Sets))
	for line, want := range map[string]bool{
		"A B":     true,
		"A only":  false,
		"C alone": true,
		"C D":     false,
		"A B C D": true,
	} {
		if got := filterLine(t, h, line); got != want {
			t.Errorf("filter(%q) = %v, want %v", line, got, want)
		}
	}
}

func TestHashFilterPureNegative(t *testing.T) {
	q := query.MustParse(`NOT pbs_mom:`)
	h, _ := NewHashFilter(mustCompile(t, q), len(q.Sets))
	if !filterLine(t, h, "ordinary line") {
		t.Error("line without negative token should pass")
	}
	if filterLine(t, h, "pbs_mom: appears") {
		t.Error("line with negative token must be dropped")
	}
	if !filterLine(t, h, "") {
		t.Error("empty line satisfies a pure-negative set")
	}
}

func TestHashFilterLongTokens(t *testing.T) {
	long := strings.Repeat("L", 45) // spans 3 datapath words
	q := query.Single(query.NewTerm(long))
	h, _ := NewHashFilter(mustCompile(t, q), 1)
	if !filterLine(t, h, "x "+long+" y") {
		t.Error("long token should match across words")
	}
	if filterLine(t, h, "x "+long[:44]+" y") {
		t.Error("prefix of long token must not match")
	}
	if filterLine(t, h, "x "+long+"L y") {
		t.Error("extension of long token must not match")
	}
}

func TestHashFilterColumns(t *testing.T) {
	q := query.Single(query.NewTerm("RAS").At(2), query.NewTerm("APP"))
	h, _ := NewHashFilter(mustCompile(t, q), 1)
	if !filterLine(t, h, "a b RAS APP") {
		t.Error("RAS at column 2 should match")
	}
	if filterLine(t, h, "RAS b c APP") {
		t.Error("RAS at column 0 must not satisfy @2")
	}
	// Negative column term: violated only at that column.
	q2 := query.Single(query.NewTerm("x"), query.NewTerm("RAS").At(0).Not())
	h2, _ := NewHashFilter(mustCompile(t, q2), 1)
	if filterLine(t, h2, "RAS x") {
		t.Error("RAS at column 0 violates the negative")
	}
	if !filterLine(t, h2, "y RAS x") {
		t.Error("RAS elsewhere should not violate @0 negative")
	}
}

func TestHashFilterSupersetDoesNotMatch(t *testing.T) {
	// A line containing extra *query* tokens from another set must not
	// corrupt the bitmap equality of the first set.
	q := query.MustParse(`(A AND B) OR (A AND B AND C)`)
	h, _ := NewHashFilter(mustCompile(t, q), len(q.Sets))
	if !filterLine(t, h, "A B C") {
		t.Error("A B C satisfies both sets")
	}
	if !filterLine(t, h, "A B") {
		t.Error("A B satisfies the first set")
	}
	// The bitmap for set 0 includes only A,B; C setting its bit in set 1
	// must not break set 0's exact match. Conversely a line with only A
	// must fail both.
	if filterLine(t, h, "A C") {
		t.Error("A C satisfies neither set")
	}
}

func TestFeedLineErrors(t *testing.T) {
	q := query.MustParse(`A`)
	h, _ := NewHashFilter(mustCompile(t, q), 1)
	tk := tokenizer.New(2)
	words := tk.TokenizeLine(nil, []byte("one two"))
	// Truncate the line: missing LastOfLine must be detected.
	if _, err := h.FeedLine(words[:1]); err == nil {
		t.Error("unterminated line should error")
	}
	// Recover filter state for the next line.
	h2, _ := NewHashFilter(mustCompile(t, q), 1)
	full := tk.TokenizeLine(nil, []byte("A"))
	if keep, err := h2.FeedLine(full); err != nil || !keep {
		t.Errorf("clean line: keep=%v err=%v", keep, err)
	}
}

func TestNewHashFilterActiveRange(t *testing.T) {
	q := query.MustParse(`A`)
	tbl := mustCompile(t, q)
	if _, err := NewHashFilter(tbl, 0); err == nil {
		t.Error("active=0 should fail")
	}
	if _, err := NewHashFilter(tbl, tbl.Sets()+1); err == nil {
		t.Error("active>sets should fail")
	}
}

func TestPipelineFilterBlock(t *testing.T) {
	p := NewPipeline(PipelineConfig{})
	q := query.MustParse(`error AND NOT benign`)
	if err := p.Configure(q); err != nil {
		t.Fatal(err)
	}
	block := []byte(strings.Join([]string{
		"disk error on sda",
		"benign error ignored",
		"all good",
		"error again",
	}, "\n"))
	kept, err := p.FilterBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 {
		t.Fatalf("kept %d lines: %q", len(kept), kept)
	}
	if string(kept[0]) != "disk error on sda" || string(kept[1]) != "error again" {
		t.Fatalf("wrong lines kept: %q", kept)
	}
	st := p.Stats()
	if st.Lines != 4 || st.Kept != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Cycles == 0 || st.RawBytes == 0 {
		t.Fatal("cycle/raw accounting missing")
	}
}

func TestPipelineFilterLines(t *testing.T) {
	p := NewPipeline(PipelineConfig{})
	q := query.MustParse(`keep`)
	if err := p.Configure(q); err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	var wantIdx []int
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			lines = append(lines, []byte(fmt.Sprintf("keep line %d", i)))
			wantIdx = append(wantIdx, i)
		} else {
			lines = append(lines, []byte(fmt.Sprintf("drop line %d", i)))
		}
	}
	got, err := p.FilterLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantIdx) {
		t.Fatalf("kept %d, want %d", len(got), len(wantIdx))
	}
	for i := range got {
		if got[i] != wantIdx[i] {
			t.Fatalf("index %d: got %d want %d", i, got[i], wantIdx[i])
		}
	}
}

func TestPipelineUnconfigured(t *testing.T) {
	p := NewPipeline(PipelineConfig{})
	if _, err := p.FilterBlock([]byte("x")); err == nil {
		t.Error("unconfigured FilterBlock should error")
	}
	if _, err := p.FilterLines([][]byte{[]byte("x")}); err == nil {
		t.Error("unconfigured FilterLines should error")
	}
}

func TestPipelineReconfigure(t *testing.T) {
	p := NewPipeline(PipelineConfig{})
	if err := p.Configure(query.MustParse(`alpha`)); err != nil {
		t.Fatal(err)
	}
	kept, _ := p.FilterBlock([]byte("alpha\nbeta"))
	if len(kept) != 1 {
		t.Fatalf("first query kept %d", len(kept))
	}
	if err := p.Configure(query.MustParse(`beta`)); err != nil {
		t.Fatal(err)
	}
	kept, _ = p.FilterBlock([]byte("alpha\nbeta"))
	if len(kept) != 1 || string(kept[0]) != "beta" {
		t.Fatalf("reconfigured query kept %q", kept)
	}
}

// randomQueryAndLines builds a random query over a small token alphabet and
// a set of random lines, for equivalence testing against query.Match.
func randomQueryAndLines(rng *rand.Rand) (query.Query, []string) {
	alphabet := []string{"RAS", "KERNEL", "INFO", "FATAL", "APP", "ciod:", "disk", "error",
		strings.Repeat("verylongtoken", 3), "x1", "y2", "z3"}
	nsets := rng.Intn(4) + 1
	var sets []query.Intersection
	for s := 0; s < nsets; s++ {
		nterms := rng.Intn(4) + 1
		var set query.Intersection
		used := map[string]bool{}
		for i := 0; i < nterms; i++ {
			tok := alphabet[rng.Intn(len(alphabet))]
			if used[tok] {
				continue
			}
			used[tok] = true
			term := query.NewTerm(tok)
			if rng.Intn(4) == 0 {
				term = term.Not()
			}
			set.Terms = append(set.Terms, term)
		}
		if len(set.Terms) == 0 {
			set.Terms = append(set.Terms, query.NewTerm(alphabet[0]))
		}
		sets = append(sets, set)
	}
	var lines []string
	for i := 0; i < 40; i++ {
		n := rng.Intn(8)
		var toks []string
		for j := 0; j < n; j++ {
			toks = append(toks, alphabet[rng.Intn(len(alphabet))])
		}
		lines = append(lines, strings.Join(toks, " "))
	}
	return query.New(sets...), lines
}

func TestQuickPipelineMatchesReference(t *testing.T) {
	// The central correctness property: the hardware filter path agrees
	// with the reference matcher on every line for random queries.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, lines := randomQueryAndLines(rng)
		p := NewPipeline(PipelineConfig{})
		if err := p.Configure(q); err != nil {
			return false
		}
		var byteLines [][]byte
		for _, l := range lines {
			byteLines = append(byteLines, []byte(l))
		}
		keptIdx, err := p.FilterLines(byteLines)
		if err != nil {
			return false
		}
		keptSet := map[int]bool{}
		for _, i := range keptIdx {
			keptSet[i] = true
		}
		for i, l := range lines {
			if q.Match(l) != keptSet[i] {
				t.Logf("seed %d: line %d %q: ref=%v hw=%v query=%s", seed, i, l, q.Match(l), keptSet[i], q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickColumnPipelineMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []string{"A", "B", "C", "D"}
		var set query.Intersection
		for i := 0; i < rng.Intn(3)+1; i++ {
			term := query.NewTerm(alphabet[rng.Intn(len(alphabet))]).At(rng.Intn(4))
			if rng.Intn(4) == 0 {
				term = term.Not()
			}
			set.Terms = append(set.Terms, term)
		}
		q := query.New(set)
		p := NewPipeline(PipelineConfig{})
		if err := p.Configure(q); err != nil {
			// Conflicting column constraints are a legal compile failure.
			return true
		}
		for i := 0; i < 30; i++ {
			var toks []string
			for j := 0; j < rng.Intn(6); j++ {
				toks = append(toks, alphabet[rng.Intn(len(alphabet))])
			}
			line := strings.Join(toks, " ")
			kept, err := p.FilterLines([][]byte{[]byte(line)})
			if err != nil {
				return false
			}
			if q.Match(line) != (len(kept) == 1) {
				t.Logf("seed %d: %q ref=%v hw=%v q=%s", seed, line, q.Match(line), len(kept) == 1, q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineCycleModel(t *testing.T) {
	p := NewPipeline(PipelineConfig{})
	if err := p.Configure(query.MustParse(`needle`)); err != nil {
		t.Fatal(err)
	}
	// 1000 typical log lines.
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "2005.11.09 dn%03d RAS KERNEL INFO event %d of some length\n", i%256, i)
	}
	if _, err := p.FilterBlock([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	// The pipeline cannot be faster than the decompressor bound.
	decompCycles := st.RawBytes / tokenizer.WordSize
	if st.Cycles < decompCycles {
		t.Fatalf("cycles %d below decompressor bound %d", st.Cycles, decompCycles)
	}
	// With ~2x amplification split over 2 filters, cycles should be within
	// a small factor of the decompressor bound (near wire speed).
	if st.Cycles > 3*decompCycles {
		t.Fatalf("cycles %d too far above wire speed bound %d", st.Cycles, decompCycles)
	}
	if r := st.Tokenizer.UsefulBitRatio(); r < 0.2 || r > 0.9 {
		t.Errorf("useful-bit ratio %v implausible", r)
	}
}

func BenchmarkPipelineFilterBlock(b *testing.B) {
	p := NewPipeline(PipelineConfig{})
	if err := p.Configure(query.MustParse(`(FATAL AND kernel) OR (error AND NOT benign)`)); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "- 1131564665 2005.11.09 dn%03d Nov 9 12:11:05 src ib_sm.x[%d]: event code %d\n", i%256, i, i%17)
	}
	block := []byte(sb.String())
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.FilterBlock(block); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUtilizationIsRawBytesOverDatapathCapacity pins Utilization's
// definition: raw bytes streamed per byte the WordSize-wide datapath
// could have carried in the pipeline's cycles, capped at 1.
func TestUtilizationIsRawBytesOverDatapathCapacity(t *testing.T) {
	for _, c := range []struct {
		raw, cycles uint64
		want        float64
	}{
		{raw: 100 * tokenizer.WordSize, cycles: 200, want: 0.5},
		{raw: 200 * tokenizer.WordSize, cycles: 200, want: 1},
		{raw: 300 * tokenizer.WordSize, cycles: 200, want: 1},
		{raw: 0, cycles: 200, want: 0},
		{raw: 100, cycles: 0, want: 0},
	} {
		if got := (PipelineStats{RawBytes: c.raw, Cycles: c.cycles}).Utilization(); got != c.want {
			t.Errorf("%d raw bytes in %d cycles: utilization %v, want %v", c.raw, c.cycles, got, c.want)
		}
	}
}
