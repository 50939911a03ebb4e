package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mithrilog/internal/query"
)

// TestIngestIndexesExactlySplitTokens is the differential oracle for the
// ingest fast path: the page indexer's SWAR split (per-page token set +
// Index.AddPage) must index exactly the tokens the reference splitTokens
// scan yields. If the inline scan dropped or mangled a token,
// the index would miss pages for it and an indexed search would return
// fewer lines than the exhaustive NoIndex scan.
func TestIngestIndexesExactlySplitTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vocab := []string{
		"alpha", "beta", "gamma", "delta-9", "kernel:", "10.0.0.7",
		"a-token-wider-than-one-datapath-word", "x",
	}
	lines := make([][]byte, 3000)
	for i := range lines {
		var b []byte
		for w, n := 0, rng.Intn(6)+1; w < n; w++ {
			if w > 0 {
				b = append(b, " \t"[rng.Intn(2)]) // space or tab
			}
			b = append(b, vocab[rng.Intn(len(vocab))]...)
		}
		lines[i] = b
	}
	e := buildEngine(t, lines)

	// Collect the reference token set the oracle says must be indexed.
	seen := map[string]bool{}
	for _, line := range lines {
		for _, tok := range splitTokens(line) {
			seen[tok] = true
		}
	}
	if len(seen) != len(vocab) {
		t.Fatalf("oracle token set has %d tokens, want %d", len(seen), len(vocab))
	}
	for tok := range seen {
		q := query.MustParse(fmt.Sprintf("(%s)", tok))
		indexed, err := e.Search(q, SearchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		exhaustive, err := e.Search(q, SearchOptions{NoIndex: true})
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		if indexed.Matches != exhaustive.Matches {
			t.Fatalf("token %q: indexed search found %d lines, exhaustive found %d — ingest failed to index it",
				tok, indexed.Matches, exhaustive.Matches)
		}
		if exhaustive.Matches == 0 {
			t.Fatalf("token %q: oracle token never matched", tok)
		}
	}
}

// splitTokens is the reference tokenizer the oracle checks the page
// indexer against: a line's maximal runs of bytes other than space and
// tab, by a plain byte loop.
func splitTokens(line []byte) []string {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			out = append(out, string(line[start:i]))
		}
	}
	return out
}
