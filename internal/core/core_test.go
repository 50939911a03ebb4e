package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

func buildEngine(t testing.TB, lines [][]byte) *Engine {
	t.Helper()
	e := NewEngine(Config{})
	if err := e.Ingest(lines); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e
}

func refCount(lines [][]byte, q query.Query) int {
	n := 0
	for _, l := range lines {
		if q.Match(string(l)) {
			n++
		}
	}
	return n
}

func TestIngestAccounting(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 2000, 0)
	e := buildEngine(t, ds.Lines)
	if e.Lines() != 2000 {
		t.Fatalf("lines = %d", e.Lines())
	}
	if e.RawBytes() != uint64(ds.SizeBytes()) {
		t.Fatalf("raw bytes %d vs %d", e.RawBytes(), ds.SizeBytes())
	}
	if e.DataPages() == 0 {
		t.Fatal("no data pages")
	}
	if r := e.CompressionRatio(); r < 1.5 || r > 10 {
		t.Fatalf("compression ratio %.2f implausible", r)
	}
	// Pages must hold compressed data: far fewer pages than raw/4K.
	rawPages := int(e.RawBytes()) / 4096
	if e.DataPages() >= rawPages {
		t.Fatalf("no compression benefit: %d pages for %d raw pages", e.DataPages(), rawPages)
	}
}

func TestSearchMatchesReference(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 3000, 0)
	e := buildEngine(t, ds.Lines)
	for _, qs := range []string{
		`RAS AND KERNEL`,
		`FATAL AND NOT INFO`,
		`parity AND error AND corrected`,
		`(TLB AND error) OR (machine AND check)`,
		`NOT RAS`,
		`nonexistent-token`,
	} {
		q := query.MustParse(qs)
		want := refCount(ds.Lines, q)
		for _, noIndex := range []bool{false, true} {
			res, err := e.Search(q, SearchOptions{NoIndex: noIndex, CollectLines: true})
			if err != nil {
				t.Fatalf("%s (noIndex=%v): %v", qs, noIndex, err)
			}
			if res.Matches != want {
				t.Errorf("%s (noIndex=%v): got %d, want %d", qs, noIndex, res.Matches, want)
			}
			if len(res.Lines) != want {
				t.Errorf("%s: lines %d != matches %d", qs, len(res.Lines), res.Matches)
			}
			if !res.Offloaded {
				t.Errorf("%s: expected accelerator offload", qs)
			}
			for _, l := range res.Lines {
				if !q.Match(string(l)) {
					t.Errorf("%s: returned non-matching line %q", qs, l)
				}
			}
		}
	}
}

func TestIndexPrunesPages(t *testing.T) {
	// Index benefits need enough data that a full scan costs more than a
	// few latency-bound index hops; at tiny scales scanning wins, which is
	// exactly the latency/bandwidth trade-off of §6.1.
	ds := loggen.Generate(loggen.BGL2, 60000, 0)
	e := buildEngine(t, ds.Lines)
	// Rare-token query: index should prune many pages.
	q := query.MustParse(`lustre AND recovery AND complete`)
	withIdx, err := e.Search(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !withIdx.UsedIndex {
		t.Fatal("index not used")
	}
	if withIdx.CandidatePages >= withIdx.TotalPages {
		t.Fatalf("index pruned nothing: %d/%d", withIdx.CandidatePages, withIdx.TotalPages)
	}
	noIdx, err := e.Search(q, SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if noIdx.Matches != withIdx.Matches {
		t.Fatalf("index changed results: %d vs %d", withIdx.Matches, noIdx.Matches)
	}
	if withIdx.SimElapsed >= noIdx.SimElapsed {
		t.Errorf("index should reduce simulated time: %v vs %v", withIdx.SimElapsed, noIdx.SimElapsed)
	}
}

func TestPureNegativeForcesFullScan(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 2000, 0)
	e := buildEngine(t, ds.Lines)
	res, err := e.Search(query.MustParse(`NOT pbs_mom:`), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatePages != res.TotalPages {
		t.Fatalf("pure-negative should scan everything: %d/%d", res.CandidatePages, res.TotalPages)
	}
}

func TestBatchedQueriesSameThroughput(t *testing.T) {
	// §7.4: multiple queries joined with OR run concurrently at no
	// performance loss — simulated time for 1 vs 8-query batches must be
	// nearly identical under full scan.
	ds := loggen.Generate(loggen.BGL2, 3000, 0)
	e := buildEngine(t, ds.Lines)
	q1 := query.MustParse(`parity AND error`)
	var batch query.Query
	batch = q1
	for i := 0; i < 7; i++ {
		batch = batch.Or(query.Single(query.NewTerm(fmt.Sprintf("tok%d", i)), query.NewTerm("KERNEL")))
	}
	r1, err := e.Search(q1, SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := e.Search(batch, SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r8.Offloaded {
		t.Fatal("8-set batch should fit the 8 flag pairs")
	}
	ratio := float64(r8.SimElapsed) / float64(r1.SimElapsed)
	if ratio > 1.3 || ratio < 0.7 {
		t.Fatalf("batched query changed simulated time by %.2fx", ratio)
	}
}

func TestTooManySetsFallsBack(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 1000, 0)
	e := buildEngine(t, ds.Lines)
	var qs []query.Query
	for i := 0; i < 9; i++ {
		qs = append(qs, query.Single(query.NewTerm("RAS"), query.NewTerm(fmt.Sprintf("t%d", i))))
	}
	batch := qs[0].Or(qs[1:]...)
	res, err := e.Search(batch, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offloaded {
		t.Fatal("9 sets must fall back to software")
	}
	if res.Matches != refCount(ds.Lines, batch) {
		t.Fatalf("software fallback wrong: %d vs %d", res.Matches, refCount(ds.Lines, batch))
	}
}

func TestSnapshotsAndRangeSearch(t *testing.T) {
	gen := func(tag string, n int) [][]byte {
		var out [][]byte
		for i := 0; i < n; i++ {
			out = append(out, []byte(fmt.Sprintf("epoch %s event number %d payload", tag, i)))
		}
		return out
	}
	e := NewEngine(Config{})
	t0 := time.Date(2021, 10, 18, 0, 0, 0, 0, time.UTC)
	if err := e.Ingest(gen("early", 2000)); err != nil {
		t.Fatal(err)
	}
	if err := e.TakeSnapshot(t0); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(gen("late", 2000)); err != nil {
		t.Fatal(err)
	}
	if err := e.TakeSnapshot(t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	q := query.MustParse(`event AND payload`)
	all, err := e.Search(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Matches != 4000 {
		t.Fatalf("all matches = %d", all.Matches)
	}
	early, err := e.Search(q, SearchOptions{To: t0})
	if err != nil {
		t.Fatal(err)
	}
	if early.Matches != 2000 {
		t.Fatalf("early matches = %d", early.Matches)
	}
	late, err := e.Search(q, SearchOptions{From: t0, CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	if late.Matches != 2000 {
		t.Fatalf("late matches = %d", late.Matches)
	}
	for _, l := range late.Lines {
		if !strings.Contains(string(l), "late") {
			t.Fatalf("late range returned early line %q", l)
		}
	}
}

func TestSearchEmptyEngine(t *testing.T) {
	e := NewEngine(Config{})
	if _, err := e.Search(query.MustParse(`x`), SearchOptions{}); err != ErrNothingIngested {
		t.Fatalf("want ErrNothingIngested, got %v", err)
	}
}

func TestIngestLineTooLong(t *testing.T) {
	e := NewEngine(Config{MaxLineBytes: 100})
	err := e.Ingest([][]byte{[]byte(strings.Repeat("x", 200))})
	if err == nil {
		t.Fatal("oversize line should fail")
	}
}

// TestIngestAllocsPerLine pins the allocation-free ingest loop: Ingest of
// a fixed batch into a warm engine, page seals included, allocates only
// for pages and index growth. The page indexer's token set keys tokens by
// their span in the page text, so no token is copied. Measured 0.03
// allocs/line; the per-page map of first-seen token keys it replaced
// measured 1.36 and fails the bound, and a string per token (13.7
// tokens/line here) measured 13.1.
func TestIngestAllocsPerLine(t *testing.T) {
	const bound = 0.25
	ds := loggen.Generate(loggen.Liberty2, 2000, 1)
	e := buildEngine(t, ds.Lines)
	allocs := testing.AllocsPerRun(5, func() {
		if err := e.Ingest(ds.Lines); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := allocs / float64(len(ds.Lines)); perLine > bound {
		t.Fatalf("ingest allocates %.2f times per line, bound %.1f", perLine, bound)
	}
}

func TestSearchWithoutFlushSeesBufferedLines(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.Ingest([][]byte{[]byte("needle in a haystack")}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(query.MustParse(`needle`), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 1 {
		t.Fatalf("buffered line invisible: %d", res.Matches)
	}
}

func TestEffectiveThroughputFlatAcrossQueryComplexity(t *testing.T) {
	// Figure 15's right-hand side: MithriLog effective throughput is
	// roughly constant regardless of query complexity under full scan.
	ds := loggen.Generate(loggen.BGL2, 4000, 0)
	e := buildEngine(t, ds.Lines)
	// Selective queries (as FT-tree template queries are): the returned
	// volume stays small, so the filter pipelines dominate the time.
	var ths []float64
	for _, qs := range []string{
		`lustre`,
		`lustre AND recovery AND complete AND target`,
		`(lustre AND recovery) OR (scheduler AND restarted) OR (heartbeat AND missed) OR (ECC AND NOT INFO)`,
	} {
		res, err := e.Search(query.MustParse(qs), SearchOptions{NoIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		ths = append(ths, res.EffectiveThroughput(e.RawBytes()))
	}
	for i := 1; i < len(ths); i++ {
		ratio := ths[i] / ths[0]
		if ratio < 0.7 || ratio > 1.4 {
			t.Fatalf("throughput not flat: %v", ths)
		}
	}
	// And it should land in the Figure 14 band (≥ 10 GB/s simulated).
	if ths[0] < 8e9 {
		t.Fatalf("simulated throughput %.2f GB/s below the paper band", ths[0]/1e9)
	}
}

func TestSimulatedTimingComponents(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 3000, 0)
	e := buildEngine(t, ds.Lines)
	res, err := e.Search(query.MustParse(`RAS`), SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimElapsed <= 0 || res.MaxPipelineCycles == 0 {
		t.Fatalf("timing not accounted: %+v", res)
	}
	if res.ScannedCompBytes == 0 || res.ScannedRawBytes <= res.ScannedCompBytes {
		t.Fatalf("scan accounting wrong: comp=%d raw=%d", res.ScannedCompBytes, res.ScannedRawBytes)
	}
}

func BenchmarkIngest(b *testing.B) {
	ds := loggen.Generate(loggen.BGL2, 2000, 0)
	b.SetBytes(int64(ds.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(Config{})
		if err := e.Ingest(ds.Lines); err != nil {
			b.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchFullScan(b *testing.B) {
	ds := loggen.Generate(loggen.BGL2, 4000, 0)
	e := NewEngine(Config{})
	if err := e.Ingest(ds.Lines); err != nil {
		b.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	q := query.MustParse(`FATAL AND NOT INFO`)
	b.SetBytes(int64(ds.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(q, SearchOptions{NoIndex: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func mustQuery(t testing.TB, expr string) query.Query {
	t.Helper()
	q, err := query.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestExportRoundTrip(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 1500, 0)
	e := buildEngine(t, ds.Lines)
	var buf bytes.Buffer
	res, err := e.Export(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.RawBytes != e.RawBytes() {
		t.Fatalf("exported %d of %d bytes", res.RawBytes, e.RawBytes())
	}
	if !bytes.Equal(buf.Bytes(), ds.Text()) {
		t.Fatal("exported text differs from ingested text")
	}
	if res.SimElapsed <= 0 {
		t.Fatal("sim time missing")
	}
	// Decompressed text over 3.1 GB/s external must dominate the
	// compressed internal stream.
	want := e.Device().TransferTime(storage.External, res.RawBytes)
	if res.SimElapsed != want {
		t.Fatalf("export should be external-bound: %v vs %v", res.SimElapsed, want)
	}
}
