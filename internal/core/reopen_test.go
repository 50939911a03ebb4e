package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mithrilog/internal/index"
	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// reopenQueries is the query set every reopen oracle compares across the
// original and reopened engines, on both the indexed and scan paths.
var reopenQueries = []string{
	`RAS AND KERNEL`,
	`FATAL AND NOT INFO`,
	`parity AND error AND corrected`,
	`(TLB AND error) OR (machine AND check)`,
	`NOT RAS`,
	`nonexistent-token`,
}

// assertEnginesAnswerIdentically runs the oracle query set against both
// engines and requires byte-identical results on both search paths.
func assertEnginesAnswerIdentically(t *testing.T, want, got *Engine) {
	t.Helper()
	if a, b := want.Lines(), got.Lines(); a != b {
		t.Fatalf("line count diverged: %d vs %d", a, b)
	}
	if a, b := want.RawBytes(), got.RawBytes(); a != b {
		t.Fatalf("raw bytes diverged: %d vs %d", a, b)
	}
	if a, b := want.CompressedBytes(), got.CompressedBytes(); a != b {
		t.Fatalf("compressed bytes diverged: %d vs %d", a, b)
	}
	if a, b := want.DataPages(), got.DataPages(); a != b {
		t.Fatalf("data pages diverged: %d vs %d", a, b)
	}
	for _, qs := range reopenQueries {
		q := query.MustParse(qs)
		for _, noIndex := range []bool{false, true} {
			rw, err := want.Search(q, SearchOptions{NoIndex: noIndex, CollectLines: true})
			if err != nil {
				t.Fatalf("%s: original engine: %v", qs, err)
			}
			rg, err := got.Search(q, SearchOptions{NoIndex: noIndex, CollectLines: true})
			if err != nil {
				t.Fatalf("%s: reopened engine: %v", qs, err)
			}
			if rw.Matches != rg.Matches {
				t.Fatalf("%s (noIndex=%v): matches %d vs %d", qs, noIndex, rw.Matches, rg.Matches)
			}
			if len(rw.Lines) != len(rg.Lines) {
				t.Fatalf("%s (noIndex=%v): %d vs %d lines", qs, noIndex, len(rw.Lines), len(rg.Lines))
			}
			for i := range rw.Lines {
				if !bytes.Equal(rw.Lines[i], rg.Lines[i]) {
					t.Fatalf("%s (noIndex=%v): line %d differs:\n  %q\n  %q",
						qs, noIndex, i, rw.Lines[i], rg.Lines[i])
				}
			}
		}
	}
}

// reopened round-trips an engine through WriteSegments/ReopenEngine.
func reopened(t *testing.T, e *Engine, cfg Config) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := ReopenEngine(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return e2
}

// TestSaveFlushesPending: a line still buffered when WriteSegments runs
// is in the stream, so the reopened engine finds it.
func TestSaveFlushesPending(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.Ingest([][]byte{[]byte("buffered line")}); err != nil {
		t.Fatal(err)
	}
	res, err := reopened(t, e, Config{}).Search(query.MustParse(`buffered`), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 1 {
		t.Fatal("pending line lost across WriteSegments")
	}
}

// TestReopenOracle is the crash/reopen oracle: after sealing and
// reopening segments, no accepted line is lost and every query answers
// byte-identically to the engine that wrote the stream. SegmentPages is
// tiny so the dataset crosses many seal boundaries.
func TestReopenOracle(t *testing.T) {
	cfg := Config{Storage: storage.Config{SegmentPages: 4}}
	ds := loggen.Generate(loggen.BGL2, 3000, 0)
	e := NewEngine(cfg)
	if err := e.Ingest(ds.Lines); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e2 := reopened(t, e, cfg)
	if st := e2.Segments(); st.Active != 0 || st.Sealed == 0 {
		t.Fatalf("reopened store not fully sealed: %+v", st)
	}
	assertEnginesAnswerIdentically(t, e, e2)
}

// TestReopenSealStraddling ingests across explicit seal points so line
// groups straddle segment boundaries, then reopens.
func TestReopenSealStraddling(t *testing.T) {
	cfg := Config{Storage: storage.Config{SegmentPages: 2}}
	ds := loggen.Generate(loggen.Liberty2, 1800, 1)
	e := NewEngine(cfg)
	for i := 0; i < len(ds.Lines); i += 300 {
		end := i + 300
		if end > len(ds.Lines) {
			end = len(ds.Lines)
		}
		if err := e.Ingest(ds.Lines[i:end]); err != nil {
			t.Fatal(err)
		}
		// Alternate between a plain flush (partial page, active segment
		// stays open) and a hard seal (segment boundary mid-stream).
		if (i/300)%2 == 0 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		} else if err := e.SealSegments(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e2 := reopened(t, e, cfg)
	assertEnginesAnswerIdentically(t, e, e2)
}

// TestReopenRebuildsTheIngestIndex: a flush writes no index node, so
// the index ingest builds depends only on the data pages, and a reopen
// rebuilds it exactly, whatever the flush schedule. Each schedule's
// engine and its reopened copy must agree on the index statistics, the
// footprint and every token's lookup. A schedule that only repeats a
// flush, or that seals by querying instead of flushing, writes the same
// data pages as the schedule it varies, so it must also give that
// schedule's answer: k flushes make the same root hops as one.
func TestReopenRebuildsTheIngestIndex(t *testing.T) {
	const batch = 777
	flush := func(e *Engine, _ int) error { return e.Flush() }
	schedules := []struct {
		name string
		// after runs after the batch that starts at line i.
		after func(e *Engine, i int) error
		// ends is the number of flushes where ingest ends.
		ends int
		// same names an earlier schedule that writes the same data pages.
		same string
	}{
		{name: "end", ends: 1},
		{name: "end x4", ends: 4, same: "end"},
		{name: "every batch", after: flush, ends: 1},
		{name: "every batch by query", after: func(e *Engine, _ int) error {
			_, err := e.Search(query.MustParse(`nonexistent-token`), SearchOptions{})
			return err
		}, ends: 1, same: "every batch"},
		{name: "mid-stream", after: func(e *Engine, i int) error {
			if i == 2*batch {
				return e.Flush()
			}
			return nil
		}, ends: 1},
	}
	for _, p := range loggen.Profiles() {
		ds := loggen.Generate(p, 3000, 0)
		tokens := goldenVocabulary(ds.Lines, rand.New(rand.NewSource(p.Seed)))
		answers := make(map[string]indexAnswer)
		for _, sc := range schedules {
			e := NewEngine(Config{})
			for i := 0; i < len(ds.Lines); i += batch {
				if err := e.Ingest(ds.Lines[i:min(i+batch, len(ds.Lines))]); err != nil {
					t.Fatal(err)
				}
				if sc.after != nil {
					if err := sc.after(e, i); err != nil {
						t.Fatal(err)
					}
				}
			}
			for range sc.ends {
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			name := p.Name + " " + sc.name
			got := indexAnswerOf(t, e, tokens)
			requireSameIndexAnswer(t, name+": ingest vs reopen", got, indexAnswerOf(t, reopened(t, e, Config{}), tokens))
			if sc.same != "" {
				requireSameIndexAnswer(t, name+" vs "+sc.same, answers[sc.same], got)
			}
			answers[sc.name] = got
		}
	}
}

// indexAnswer is what an engine's index answers: its statistics, its
// footprint, and one row per token lookup giving the candidate pages as
// ordinals into the engine's data pages (their IDs depend on when the
// index allocated its own pages), the root hops and the leaf reads.
type indexAnswer struct {
	stats     index.Stats
	footprint int
	lookups   []string
}

func indexAnswerOf(t *testing.T, e *Engine, tokens []string) indexAnswer {
	t.Helper()
	ordinal := make(map[storage.PageID]int, len(e.dataPages))
	for i, id := range e.dataPages {
		ordinal[id] = i
	}
	a := indexAnswer{stats: e.Index().Stats(), footprint: e.IndexMemoryFootprint()}
	for _, tok := range tokens {
		res, err := e.Index().Lookup(tok)
		if err != nil {
			t.Fatal(err)
		}
		pages := make([]int, 0, len(res.Pages))
		for _, id := range res.Pages {
			o, ok := ordinal[id]
			if !ok {
				t.Fatalf("lookup %q: page %d is not a data page", tok, id)
			}
			pages = append(pages, o)
		}
		slices.Sort(pages)
		a.lookups = append(a.lookups, fmt.Sprintf("%s pages=%v roothops=%d leafreads=%d", tok, pages, res.RootHops, res.LeafReads))
	}
	return a
}

func requireSameIndexAnswer(t *testing.T, name string, want, got indexAnswer) {
	t.Helper()
	if want.stats != got.stats || want.footprint != got.footprint {
		t.Fatalf("%s: index %+v footprint=%d, want %+v footprint=%d", name, got.stats, got.footprint, want.stats, want.footprint)
	}
	for i := range want.lookups {
		if want.lookups[i] != got.lookups[i] {
			t.Fatalf("%s: lookup\n  got  %s\n  want %s", name, got.lookups[i], want.lookups[i])
		}
	}
}

// TestReopenEmptyEngine round-trips an engine with nothing ingested.
func TestReopenEmptyEngine(t *testing.T) {
	cfg := Config{}
	e2 := reopened(t, NewEngine(cfg), cfg)
	if n := e2.Lines(); n != 0 {
		t.Fatalf("empty reopen has %d lines", n)
	}
	if _, err := e2.Search(query.MustParse("x"), SearchOptions{}); !errors.Is(err, ErrNothingIngested) {
		t.Fatalf("err = %v, want ErrNothingIngested", err)
	}
}

// TestReopenRejectsCorruptStream asserts engine-level reopen surfaces the
// storage layer's checksum failures instead of serving damaged data.
func TestReopenRejectsCorruptStream(t *testing.T) {
	cfg := Config{Storage: storage.Config{SegmentPages: 4}}
	ds := loggen.Generate(loggen.BGL2, 500, 2)
	e := NewEngine(cfg)
	if err := e.Ingest(ds.Lines); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, pos := range []int{10, len(valid) / 2, len(valid) - 3} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x20
		if _, err := ReopenEngine(cfg, bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at %d accepted", pos)
		}
	}
}

// TestSegmentStatsTrackIngest pins the seal cadence: with SegmentPages=N,
// every N data pages produce one sealed segment.
func TestSegmentStatsTrackIngest(t *testing.T) {
	cfg := Config{Storage: storage.Config{SegmentPages: 3}}
	e := NewEngine(cfg)
	var lines [][]byte
	for i := 0; i < 1500; i++ {
		lines = append(lines, []byte(fmt.Sprintf("entry %d alpha beta gamma delta epsilon zeta", i)))
	}
	if err := e.Ingest(lines); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Segments()
	pages := e.DataPages()
	if got := st.SealedPages + st.ActivePages; got != pages {
		t.Fatalf("segment pages %d != data pages %d", got, pages)
	}
	if want := pages / 3; st.Sealed != want {
		t.Fatalf("sealed segments = %d, want %d (pages=%d)", st.Sealed, want, pages)
	}
}
