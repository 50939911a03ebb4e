package filter

import (
	"testing"

	"mithrilog/internal/loggen"
	"mithrilog/internal/lzah"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// liberty2Page returns the text of one full Liberty2 data page: the
// longest run of generated lines whose LZAH image fits storage.PageSize,
// as the engine's ingest would cut it.
func liberty2Page(tb testing.TB) []byte {
	tb.Helper()
	text := loggen.Generate(loggen.Liberty2, 2000, 5).Text()
	_, cuts := lzah.NewCodec(lzah.Options{}).CompressLines(nil, text, nil)
	end := 0
	for _, c := range cuts {
		if c.Size() > storage.PageSize {
			break
		}
		end = c.End
	}
	if end == 0 {
		tb.Fatal("no Liberty2 line fits a page")
	}
	return text[:end]
}

// benchQuery is a union with a negated term and a column constraint, so
// the evaluation takes every branch of a hit.
const benchQuery = `(failed AND NOT sshd) OR (error:4) OR (kernel: AND panic)`

// BenchmarkTokenize is the fill cost of a page-cache miss: recording one
// Liberty2 page's tokens and line ends.
func BenchmarkTokenize(b *testing.B) {
	page := liberty2Page(b)
	p := configured(query.MustParse(benchQuery))
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = p.Tokenize(page)
	}
}

// BenchmarkDictionary is the ingest indexer's share of a page: the
// distinct tokens of one Liberty2 page and its line count.
func BenchmarkDictionary(b *testing.B) {
	page := liberty2Page(b)
	p := NewPipeline(PipelineConfig{})
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Dictionary(page)
	}
}

// BenchmarkFilterTokenized is the cost of a page-cache hit: evaluating
// one tokenized Liberty2 page against a query.
func BenchmarkFilterTokenized(b *testing.B) {
	page := liberty2Page(b)
	p := configured(query.MustParse(benchQuery))
	tb := p.Tokenize(page)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.FilterTokenized(tb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterTokenizedMiss is the common cost of a page-cache hit:
// one tokenized Liberty2 page against a query none of its tokens hits,
// as `NFS OR lustre` misses 88 % of the benchmark's pages.
func BenchmarkFilterTokenizedMiss(b *testing.B) {
	page := liberty2Page(b)
	p := configured(query.MustParse(`NFS OR lustre`))
	tb := p.Tokenize(page)
	if kept, err := p.FilterTokenized(tb); err != nil || len(kept) != 0 {
		b.Fatalf("the page keeps %d lines, err %v; want a miss", len(kept), err)
	}
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.FilterTokenized(tb); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink *TokenizedBlock
