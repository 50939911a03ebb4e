package softscan

import (
	"testing"

	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

func buildSmall(t testing.TB) (*Engine, *loggen.Dataset) {
	t.Helper()
	ds := loggen.Generate(loggen.BGL2, 3000, 0)
	dev := storage.New(storage.Config{})
	e, err := Build(dev, ds.Lines)
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

func TestBuildAccounting(t *testing.T) {
	e, ds := buildSmall(t)
	if e.Lines() != uint64(len(ds.Lines)) {
		t.Fatalf("lines %d", e.Lines())
	}
	if e.RawBytes() != uint64(ds.SizeBytes()) {
		t.Fatalf("raw bytes %d vs %d", e.RawBytes(), ds.SizeBytes())
	}
	if e.Blocks() == 0 {
		t.Fatal("no blocks")
	}
}

func TestScanAgreesWithReference(t *testing.T) {
	e, ds := buildSmall(t)
	queries := []string{
		`RAS AND KERNEL`,
		`FATAL AND NOT INFO`,
		`parity AND error`,
		`(TLB AND error) OR (machine AND check)`,
		`NOT RAS`,
		`nonexistenttoken`,
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		want := 0
		for _, l := range ds.Lines {
			if q.Match(string(l)) {
				want++
			}
		}
		res, err := e.Scan(q, 2)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if res.Matches != want {
			t.Errorf("%s: scan=%d ref=%d", qs, res.Matches, want)
		}
		if res.BytesScanned != e.RawBytes() {
			t.Errorf("%s: full scan must touch all bytes (%d vs %d)", qs, res.BytesScanned, e.RawBytes())
		}
	}
}

func TestScanWorkerCounts(t *testing.T) {
	e, _ := buildSmall(t)
	q := query.MustParse(`error`)
	r1, err := e.Scan(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := e.Scan(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Matches != r4.Matches {
		t.Fatalf("worker count changed results: %d vs %d", r1.Matches, r4.Matches)
	}
}

func TestCompressionReducesTraffic(t *testing.T) {
	e, _ := buildSmall(t)
	res, err := e.Scan(query.MustParse(`x`), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressedBytesRead >= res.BytesScanned {
		t.Fatalf("column compression should reduce storage traffic: %d vs %d",
			res.CompressedBytesRead, res.BytesScanned)
	}
}

func TestPerTermCostGrows(t *testing.T) {
	// The §7.4.2 shape: more terms per query -> more work per line. The
	// work is counted, not timed: one containment pass per distinct term
	// per line, so a 16-term scan does exactly eight times a 2-term scan's.
	e, ds := buildSmall(t)
	small := query.MustParse(`RAS AND KERNEL`)
	big := query.MustParse(`RAS AND KERNEL AND INFO AND FATAL AND parity AND cache AND error AND corrected AND machine AND check AND interrupt AND TLB AND data AND instruction AND core AND signal`)
	rs, err := e.Scan(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Scan(big, 2)
	if err != nil {
		t.Fatal(err)
	}
	lines := uint64(len(ds.Lines))
	if rs.TermPasses != 2*lines || rb.TermPasses != 16*lines {
		t.Errorf("term passes over %d lines: 2-term scan %d, 16-term scan %d; want %d and %d",
			lines, rs.TermPasses, rb.TermPasses, 2*lines, 16*lines)
	}
}

func TestEffectiveThroughput(t *testing.T) {
	r := ScanResult{Elapsed: 0}
	if r.EffectiveThroughput(100) != 0 {
		t.Error("zero elapsed must not divide by zero")
	}
}

func TestColumnQueryFallback(t *testing.T) {
	e, ds := buildSmall(t)
	q := query.Single(query.NewTerm("RAS").At(6))
	want := 0
	for _, l := range ds.Lines {
		if q.Match(string(l)) {
			want++
		}
	}
	res, err := e.Scan(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Fatalf("column fallback: %d vs %d", res.Matches, want)
	}
}

func TestContainsToken(t *testing.T) {
	cases := []struct {
		line, tok string
		want      bool
	}{
		{"a b c", "b", true},
		{"abc", "b", false},
		{"ab b", "b", true},
		{"b", "b", true},
		{"bb b bb", "b", true},
		{"bb bbb", "b", false},
		{"x pbs_mom: y", "pbs_mom:", true},
		{"x pbs_mom:y", "pbs_mom:", false},
		{"", "b", false},
		{"b", "", false},
		{"a\tb", "b", true},
	}
	for _, c := range cases {
		if got := containsToken([]byte(c.line), c.tok); got != c.want {
			t.Errorf("containsToken(%q, %q) = %v", c.line, c.tok, got)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	ds := loggen.Generate(loggen.BGL2, 4000, 0)
	dev := storage.New(storage.Config{})
	e, err := Build(dev, ds.Lines)
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustParse(`FATAL AND NOT INFO`)
	b.SetBytes(int64(e.RawBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Scan(q, 0); err != nil {
			b.Fatal(err)
		}
	}
}
