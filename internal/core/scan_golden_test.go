package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files from the current code")

// TestScanGolden pins the simulated side of the read path — everything a
// SearchResult reports that the hwsim cycle model or the byte accounting
// produces, and nothing the wall clock does — against a file generated
// once and committed. The oracles say the engine returns the right lines;
// this says a rewrite of the tokenizer, the filter or the cache moved no
// cycle, no byte count and no simulated duration: the executable form of
// "EXPERIMENTS.md must not move".
//
// The query suite is the one TestDifferentialOracle draws (same seeds,
// same vocabulary sampling, same query shapes), over the four loggen
// profiles, on four paths: full scan, index-pruned, and a NoIndex scan
// through the page cache both cold (every page decoded, tokenized and
// inserted) and warm (every page a hit).
//
// Regenerate with `go test ./internal/core -run TestScanGolden
// -update-golden` only when a change is *meant* to move the model, and
// say so in the PR.
func TestScanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	checkGolden(t, "scan_golden.txt", scanGolden(t))
}

// checkGolden compares got with testdata/name row by row, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotRows, wantRows := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotRows) && i < len(wantRows); i++ {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("%s diverges at row %d:\n got: %s\nwant: %s", name, i+1, gotRows[i], wantRows[i])
		}
	}
	t.Fatalf("%s has %d rows, want %d", name, len(gotRows), len(wantRows))
}

func scanGolden(t *testing.T) []byte {
	const queriesPerDataset = 60
	lines := map[string]int{
		"BGL2": 3000, "Liberty2": 4000, "Spirit2": 4000, "Thunderbird": 4000,
	}
	var out bytes.Buffer
	for _, p := range loggen.Profiles() {
		ds := loggen.Generate(p, lines[p.Name], 0)
		open := func(cache PageCache) *Engine {
			e := NewEngine(Config{PageCache: cache})
			if err := e.Ingest(ds.Lines); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			return e
		}
		plain := open(nil)
		cache := newTestPageCache()
		cached := open(cache)

		rng := rand.New(rand.NewSource(0xD1FF ^ p.Seed))
		vocab := goldenVocabulary(ds.Lines, rng)
		for qi := 0; qi < queriesPerDataset; qi++ {
			q := goldenQuery(rng, vocab)
			fmt.Fprintf(&out, "# %s q%02d %s\n", p.Name, qi, q)
			cache.InvalidateAll()
			for _, path := range []struct {
				name string
				eng  *Engine
				opts SearchOptions
			}{
				{"noindex", plain, SearchOptions{NoIndex: true}},
				{"indexed", plain, SearchOptions{}},
				{"cold", cached, SearchOptions{NoIndex: true}},
				{"warm", cached, SearchOptions{NoIndex: true}},
			} {
				res, err := path.eng.Search(q, path.opts)
				if err != nil {
					t.Fatalf("%s query %d (%s) [%s]: %v", p.Name, qi, q, path.name, err)
				}
				fmt.Fprintf(&out, "%s q%02d %-7s matches=%d cand=%d cached=%d off=%t raw=%d comp=%d ret=%d maxcyc=%d cyc=%v index=%d stream=%d filter=%d return=%d\n",
					p.Name, qi, path.name, res.Matches, res.CandidatePages, res.CachedPages, res.Offloaded,
					res.ScannedRawBytes, res.ScannedCompBytes, res.ReturnedBytes,
					res.MaxPipelineCycles, res.PipelineCycles,
					res.IndexTime.Nanoseconds(), res.StreamTime.Nanoseconds(),
					res.FilterTime.Nanoseconds(), res.ReturnTime.Nanoseconds())
			}
		}
	}
	return out.Bytes()
}

// goldenVocabulary and goldenQuery draw what the root package's
// TestDifferentialOracle draws (tokenVocabulary, randomQuery): that
// package's test helpers cannot be imported from here.
func goldenVocabulary(lines [][]byte, rng *rand.Rand) []string {
	seen := make(map[string]bool)
	var vocab []string
	for len(vocab) < 400 {
		line := lines[rng.Intn(len(lines))]
		toks := bytes.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' })
		if len(toks) == 0 {
			continue
		}
		tok := string(toks[rng.Intn(len(toks))])
		if tok == "" || seen[tok] {
			continue
		}
		seen[tok] = true
		vocab = append(vocab, tok)
	}
	for i := 0; i < 12; i++ {
		vocab = append(vocab, fmt.Sprintf("nonexistent-token-%d", i))
	}
	return vocab
}

func goldenQuery(rng *rand.Rand, vocab []string) query.Query {
	var q query.Query
	nSets := 1 + rng.Intn(2)
	for s := 0; s < nSets; s++ {
		var set query.Intersection
		nTerms := 1 + rng.Intn(3)
		for i := 0; i < nTerms; i++ {
			term := query.NewTerm(vocab[rng.Intn(len(vocab))])
			term.Negated = rng.Intn(4) == 0
			set.Terms = append(set.Terms, term)
		}
		q.Sets = append(q.Sets, set)
	}
	if err := q.Validate(); err != nil {
		return goldenQuery(rng, vocab)
	}
	return q
}
