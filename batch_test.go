package mithrilog

import (
	"fmt"
	"runtime"
	"testing"

	"mithrilog/internal/loggen"
)

func TestSearchBatchMatchesIndividual(t *testing.T) {
	lines := sampleLines(3000)
	eng := Open(Config{})
	if err := eng.IngestLines(lines); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		MustParseQuery(`parity AND error`),
		MustParseQuery(`(TLB AND data) OR (machine AND check)`), // 2 sets
		MustParseQuery(`FATAL AND NOT INFO`),
		MustParseQuery(`lustre`),
		MustParseQuery(`nonexistent-token-xyz`),
	}
	batch, err := eng.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Matches) != len(queries) {
		t.Fatalf("matches = %d", len(batch.Matches))
	}
	for qi, q := range queries {
		individual, err := eng.SearchQuery(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if batch.Matches[qi] != individual.Matches {
			t.Errorf("query %d (%s): batch %d != individual %d",
				qi, q, batch.Matches[qi], individual.Matches)
		}
	}
	// 6 total sets at capacity 8 -> one pass.
	if batch.Passes != 1 {
		t.Fatalf("passes = %d", batch.Passes)
	}
	if batch.SimElapsed <= 0 {
		t.Fatal("sim time missing")
	}
}

func TestSearchBatchMultiPass(t *testing.T) {
	eng := Open(Config{})
	var lines []string
	var queries []Query
	for i := 0; i < 20; i++ {
		tok := fmt.Sprintf("batchtok%02d", i)
		lines = append(lines, tok+" payload")
		queries = append(queries, MustParseQuery(tok))
	}
	if err := eng.IngestLines(lines); err != nil {
		t.Fatal(err)
	}
	batch, err := eng.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Passes != 3 { // 20 sets / 8 per pass
		t.Fatalf("passes = %d", batch.Passes)
	}
	for qi := range queries {
		if batch.Matches[qi] != 1 {
			t.Fatalf("query %d matches = %d", qi, batch.Matches[qi])
		}
	}
}

func TestSearchBatchOverlappingSetsCountOnce(t *testing.T) {
	eng := Open(Config{})
	if err := eng.IngestLines([]string{"a b both here"}); err != nil {
		t.Fatal(err)
	}
	// Both sets of one query match the same line: it must count once.
	q := MustParseQuery(`(a) OR (b)`)
	batch, err := eng.SearchBatch([]Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Matches[0] != 1 {
		t.Fatalf("double-counted: %d", batch.Matches[0])
	}
}

func TestSearchBatchErrors(t *testing.T) {
	eng := Open(Config{})
	if _, err := eng.SearchBatch(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	if err := eng.IngestLines([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchBatch([]Query{{}}); err == nil {
		t.Fatal("invalid query should fail")
	}
}

// TestBatchCountsWithoutPerLineAllocs holds SearchBatch to a counting
// run: its mallocs may not grow with the lines scanned, and the bytes it
// allocates may grow by under 2 per added line (a per-line slice of ints
// costs far more). The batch's 10-set query is wider than one pass at the
// default capacity of 8, and its first and ninth sets fire on the same
// lines in different passes; it must still count each line once, as
// Query.Match does.
func TestBatchCountsWithoutPerLineAllocs(t *testing.T) {
	const n = 5000
	ds := loggen.Generate(loggen.Liberty2, 4*n, 9)
	queries := []Query{
		MustParseQuery(`(parity AND cache) OR (TLB AND data) OR (machine AND check) OR (failed AND read) OR pbs_mom: OR ntpd OR (crond AND NOT ganglia) OR (port AND ms) OR (error AND corrected) OR interrupt`),
		MustParseQuery(`kernel:`),
	}
	overlap := MustParseQuery(`parity AND cache AND error AND corrected`)
	allocsFor := func(lines [][]byte) (mallocs, bytes uint64) {
		e := Open(Config{})
		defer e.Close()
		if err := e.IngestBytes(lines); err != nil {
			t.Fatal(err)
		}
		batch, err := e.SearchBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Passes != 2 {
			t.Fatalf("11 sets took %d passes, want 2", batch.Passes)
		}
		both := 0
		for qi, q := range queries {
			want := 0
			for _, l := range lines {
				if q.Match(string(l)) {
					want++
				}
				if qi == 0 && overlap.Match(string(l)) {
					both++
				}
			}
			if batch.Matches[qi] != want {
				t.Errorf("%d lines: batch query %d counts %d, Query.Match %d", len(lines), qi, batch.Matches[qi], want)
			}
		}
		if both == 0 {
			t.Fatalf("%d lines: no line fires the wide query in both passes", len(lines))
		}
		runtime.GC()
		mallocs, bytes = ^uint64(0), ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 10; i++ {
			runtime.ReadMemStats(&before)
			if _, err := e.SearchBatch(queries); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return mallocs, bytes
	}
	small, smallBytes := allocsFor(ds.Lines[:n])
	large, largeBytes := allocsFor(ds.Lines)
	t.Logf("two-query batch: %d mallocs over %d lines, %d over %d", small, n, large, 4*n)
	if large >= 2*small {
		t.Errorf("two-query batch: %d mallocs over %d lines, %d over %d: it allocates per line", small, n, large, 4*n)
	}
	t.Logf("two-query batch: %d bytes over %d lines, %d over %d", smallBytes, n, largeBytes, 4*n)
	if largeBytes >= smallBytes+2*(4*n-n) {
		t.Errorf("two-query batch: %d bytes over %d lines, %d over %d: it grows by 2 or more bytes per line", smallBytes, n, largeBytes, 4*n)
	}
}

func TestDrainLibraryFacade(t *testing.T) {
	var lines []string
	for i := 0; i < 20; i++ {
		lines = append(lines, fmt.Sprintf("session opened for user u%d", i))
		lines = append(lines, fmt.Sprintf("cache flush took %d ms total", i*3))
	}
	lib := ExtractTemplatesDrain(lines, DrainParams{})
	if lib.Len() != 2 {
		t.Fatalf("groups = %d", lib.Len())
	}
	tpl, err := lib.Template(0)
	if err != nil || tpl == "" {
		t.Fatalf("template: %q %v", tpl, err)
	}
	sup, err := lib.Support(0)
	if err != nil || sup != 20 {
		t.Fatalf("support: %d %v", sup, err)
	}
	if _, err := lib.Template(99); err == nil {
		t.Fatal("out of range template")
	}
	if _, err := lib.Support(-1); err == nil {
		t.Fatal("out of range support")
	}
	id := lib.Classify("session opened for user u99")
	if id < 0 {
		t.Fatal("classify failed")
	}
	// The compiled query must run on the engine and match the group.
	eng := Open(Config{})
	if err := eng.IngestLines(lines); err != nil {
		t.Fatal(err)
	}
	q, err := lib.Query(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SearchQuery(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 20 {
		t.Fatalf("drain query matches = %d", res.Matches)
	}
}
