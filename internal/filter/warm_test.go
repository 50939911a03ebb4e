package filter

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mithrilog/internal/query"
	"mithrilog/internal/tokenizer"
)

// checkWarmVsCold runs block twice through two pipelines of nf hash
// filters configured with q: one takes each copy through FilterBlock, the
// other through Tokenize and FilterTokenized. Both must keep the same
// lines, and end with the same PipelineStats but for the tokenizer
// array's, and the same words, lines and kept lines on every filter. The
// second copy checks that a page adds to the counts of the one before.
func checkWarmVsCold(t testing.TB, block []byte, q query.Query, nf int) {
	t.Helper()
	cold := NewPipeline(PipelineConfig{HashFilters: nf})
	if cold.Configure(q) != nil {
		return // not offloadable: no pipeline ever sees it
	}
	warm := NewPipeline(PipelineConfig{HashFilters: nf})
	if err := warm.Configure(q); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		want, err := cold.FilterBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.FilterTokenized(warm.Tokenize(block))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := asStrings(got), asStrings(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%d filters, pass %d: warm kept %q, cold %q (block %q, query %s)", nf, pass, g, w, block, q)
		}
	}
	gs, ws := warm.Stats(), cold.Stats()
	gs.Tokenizer, ws.Tokenizer = tokenizer.Stats{}, tokenizer.Stats{}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%d filters: warm stats %+v, cold %+v (block %q, query %s)", nf, gs, ws, block, q)
	}
	for k := range cold.filters {
		g, w := warm.filters[k], cold.filters[k]
		if g.Words() != w.Words() || g.Lines() != w.Lines() || g.Kept() != w.Kept() {
			t.Fatalf("%d filters: filter %d warm words/lines/kept %d/%d/%d, cold %d/%d/%d (block %q, query %s)",
				nf, k, g.Words(), g.Lines(), g.Kept(), w.Words(), w.Lines(), w.Kept(), block, q)
		}
	}
}

// TestWarmStatsAtEveryFilterCount holds the warm evaluator's per-page
// booking — each filter's share of the lines, the line and byte counts —
// to the cold walker's per-line booking at filter counts that divide the
// line count and that do not, over blocks of fewer lines than filters.
func TestWarmStatsAtEveryFilterCount(t *testing.T) {
	blocks := [][]byte{
		bytes.Join(diffLines(rand.New(rand.NewSource(5)), 301), []byte("\n")),
		bytes.Join(diffLines(rand.New(rand.NewSource(6)), 64), []byte("\n")),
	}
	for n := 0; n <= 3; n++ {
		blocks = append(blocks, bytes.Join(diffLines(rand.New(rand.NewSource(int64(n))), n), []byte("\n")))
	}
	blocks = append(blocks, []byte("error"), []byte("\n\nwarn x\n"))
	for _, nf := range []int{1, 2, 3, 5} {
		for _, qs := range diffQueries {
			q := query.MustParse(qs)
			for _, block := range blocks {
				checkWarmVsCold(t, block, q, nf)
				checkWarmVsCold(t, append(bytes.Clone(block), '\n'), q, nf)
			}
		}
	}
}

// TestLeadByteAliasing gives the query and the page tokens whose first
// bytes share their low six bits — 'A' (0x41), 0x01, 0x81 and 0xC1 — and
// the same lengths, so only the first byte tells them apart, and the
// table's first-byte mask does not. The warm answer must be the cold one.
func TestLeadByteAliasing(t *testing.T) {
	block := []byte("Abc \x01bc \x81bc \xc1bc\n\x01bc x\nAbc\n\xc1bc Axyz\n\x81xyz \x01xyz\n\xc1bc \x81bc\n\xff\xfe \x7f\xfe\n\x81bc")
	for _, qs := range []string{
		`Abc`,
		"\x81bc",
		"(\xc1bc AND NOT Abc) OR (\x81xyz)",
		"Axyz OR \xff\xfe",
		"NOT \x81bc",
		"(Abc:0) OR (\xc1bc:1)",
	} {
		q := query.MustParse(qs)
		checkSpanVsWord(t, block, q)
		for _, nf := range []int{1, 2, 3} {
			checkWarmVsCold(t, block, q, nf)
		}
	}
}
