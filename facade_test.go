package mithrilog

import (
	"errors"
	"strings"
	"testing"
)

func TestConfigOverrides(t *testing.T) {
	// A 2-set configuration must reject 3-set batches to software.
	eng := Open(Config{
		Pipelines:        2,
		HashTableRows:    64,
		IntersectionSets: 2,
		IndexBuckets:     1024,
	})
	if err := eng.IngestLines([]string{"a x", "b y", "c z"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	two, err := eng.Search(`(a) OR (b)`, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !two.Offloaded || two.Matches != 2 {
		t.Fatalf("2-set query: %+v", two)
	}
	three, err := eng.Search(`(a) OR (b) OR (c)`, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if three.Offloaded {
		t.Fatal("3 sets must exceed the 2-set capacity")
	}
	if three.Matches != 3 {
		t.Fatalf("software fallback matches = %d", three.Matches)
	}
}

func TestBandwidthOverridesAffectTiming(t *testing.T) {
	lines := sampleLines(3000)
	fast := Open(Config{InternalBandwidth: 48e9, ExternalBandwidth: 31e9})
	slow := Open(Config{InternalBandwidth: 0.48e9, ExternalBandwidth: 0.31e9})
	for _, e := range []*Engine{fast, slow} {
		if err := e.IngestLines(lines); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// A match-everything scan is bandwidth-bound, so a 100x slower device
	// must show a clearly slower simulated query.
	fr, err := fast.Search(`RAS`, SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := slow.Search(`RAS`, SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if sr.SimElapsed < 10*fr.SimElapsed {
		t.Fatalf("bandwidth override ineffective: slow %v vs fast %v", sr.SimElapsed, fr.SimElapsed)
	}
}

func TestIngestBytes(t *testing.T) {
	eng := Open(Config{})
	if err := eng.IngestBytes([][]byte{[]byte("byte line one"), []byte("byte line two")}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(`byte`, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 2 {
		t.Fatalf("matches = %d", res.Matches)
	}
}

// TestOversizeLineRejectsWholeBatch pins that a batch holding one line
// too long for a data page ingests none of its lines, whatever the fleet
// width or placement: a client that retries the rest must not duplicate.
func TestOversizeLineRejectsWholeBatch(t *testing.T) {
	batch := [][]byte{
		[]byte("okfirst line"),
		[]byte("toolong " + strings.Repeat("x", 4000)),
		[]byte("oklast line"),
	}
	for _, cfg := range []Config{{}, {Shards: 4}} {
		for _, tenant := range []string{"", "acme"} {
			eng := Open(cfg)
			if err := eng.IngestLines([]string{"base line"}); err != nil {
				t.Fatal(err)
			}
			err := eng.IngestTenant(tenant, batch)
			if !errors.Is(err, ErrLineTooLong) {
				t.Fatalf("shards=%d tenant=%q: err = %v, want ErrLineTooLong", cfg.Shards, tenant, err)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Search(`okfirst OR toolong OR oklast`, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != 0 {
				t.Errorf("shards=%d tenant=%q: %d lines of the rejected batch ingested", cfg.Shards, tenant, res.Matches)
			}
			if got := eng.Stats().Lines; got != 1 {
				t.Errorf("shards=%d tenant=%q: %d lines stored, want 1", cfg.Shards, tenant, got)
			}
		}
	}
}

func TestSearchRegexFacade(t *testing.T) {
	eng := Open(Config{})
	if err := eng.IngestLines([]string{
		"job 12345 exited with status 1",
		"job abc exited with status 0",
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.SearchRegex(`job \d+ exited`, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 1 || len(res.Lines) != 1 {
		t.Fatalf("regex facade: %+v", res)
	}
	if !strings.Contains(res.Lines[0], "12345") {
		t.Fatalf("wrong line: %q", res.Lines[0])
	}
	if res.SimElapsed <= 0 || res.WallElapsed <= 0 {
		t.Fatal("timing missing")
	}
	if _, err := eng.SearchRegex(`(bad`, false); err == nil {
		t.Fatal("bad pattern should fail")
	}
}

func TestSearchBreakdownExposed(t *testing.T) {
	// A routed result carries the breakdown of the shard that bound the
	// query, so the identity holds on a fleet exactly as on one engine.
	for _, cfg := range []Config{{}, {Shards: 4}} {
		eng := Open(cfg)
		if err := eng.IngestLines(sampleLines(2000)); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Search(`RAS AND KERNEL`, SearchOptions{NoIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		b := res.Breakdown
		if b.Stream <= 0 || b.Filter <= 0 {
			t.Fatalf("shards=%d: breakdown missing: %+v", cfg.Shards, b)
		}
		// SimElapsed = index + max(stream, filter) + return.
		bound := b.Index + b.Return
		if b.Stream > b.Filter {
			bound += b.Stream
		} else {
			bound += b.Filter
		}
		if res.SimElapsed != bound {
			t.Fatalf("shards=%d: breakdown inconsistent: %v != %v", cfg.Shards, res.SimElapsed, bound)
		}
	}
}

func TestSimplifyEnablesOffload(t *testing.T) {
	// Nine sets with one subsumed: Simplify brings it within the 8-set
	// capacity.
	base := MustParseQuery(`(t0 AND u0)`)
	q := base
	for i := 1; i < 8; i++ {
		q = q.Or(MustParseQuery("(t" + string(rune('0'+i)) + ")"))
	}
	q = q.Or(MustParseQuery(`(t0 AND u0 AND extra)`)) // subsumed by base
	if q.Sets() != 9 {
		t.Fatalf("sets = %d", q.Sets())
	}
	s := q.Simplify()
	if s.Sets() != 8 {
		t.Fatalf("simplified sets = %d", s.Sets())
	}
	eng := Open(Config{})
	if err := eng.IngestLines([]string{"t0 u0 extra", "t3 something"}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.SearchQuery(s, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Offloaded || res.Matches != 2 {
		t.Fatalf("simplified batch should offload: %+v", res)
	}
}

func TestExportFacade(t *testing.T) {
	eng := Open(Config{})
	lines := []string{"export line one", "export line two"}
	if err := eng.IngestLines(lines); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	n, err := eng.Export(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(lines, "\n") + "\n"
	if buf.String() != want {
		t.Fatalf("exported %q, want %q", buf.String(), want)
	}
	if n != uint64(len(want)) {
		t.Fatalf("n = %d, want %d", n, len(want))
	}
}
