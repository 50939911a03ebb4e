package mithrilog

import (
	"bytes"
	"testing"

	"mithrilog/internal/baseline/softscan"
	"mithrilog/internal/baseline/splunksim"
	"mithrilog/internal/core"
	"mithrilog/internal/ftree"
	"mithrilog/internal/loggen"
	"mithrilog/internal/storage"
)

// TestCrossEngineAgreement is the repository's consistency keystone: for a
// realistic dataset and its full machine-generated template-query library,
// the accelerated engine (with and without index), the MonetDB-like full
// scanner, the Splunk-like index engine, and the reference matcher must
// all report identical match counts on every query.
func TestCrossEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine sweep is not short")
	}
	ds := loggen.Generate(loggen.Spirit2, 12000, 0)

	eng := core.NewEngine(core.Config{})
	if err := eng.Ingest(ds.Lines); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	soft, err := softscan.Build(storage.New(storage.Config{}), ds.Lines)
	if err != nil {
		t.Fatal(err)
	}
	splunk, err := splunksim.Build(storage.New(storage.Config{}), ds.Lines)
	if err != nil {
		t.Fatal(err)
	}

	lib := ftree.Extract(ds.Lines, ftree.Params{MaxChildren: 40, MinSupport: 5, MaxDepth: 12})
	queries := lib.Queries()
	if len(queries) < 20 {
		t.Fatalf("library too small: %d", len(queries))
	}
	if len(queries) > 60 {
		queries = queries[:60]
	}
	// Add a few hand-written shapes the library does not cover.
	for _, expr := range []string{
		`NOT kernel:`,
		`(lustre AND recovery) OR (heartbeat AND missed)`,
		`error AND NOT ERROR`,
	} {
		q, err := ParseQuery(expr)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q.q)
	}

	for qi, q := range queries {
		want := 0
		for _, l := range ds.Lines {
			if q.Match(string(l)) {
				want++
			}
		}
		accel, err := eng.Search(q, core.SearchOptions{})
		if err != nil {
			t.Fatalf("query %d (%s): %v", qi, q, err)
		}
		if accel.Matches != want {
			t.Errorf("query %d: accelerator(index) %d != reference %d (%s)", qi, accel.Matches, want, q)
		}
		scan, err := eng.Search(q, core.SearchOptions{NoIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		if scan.Matches != want {
			t.Errorf("query %d: accelerator(scan) %d != reference %d", qi, scan.Matches, want)
		}
		sres, err := soft.Scan(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Matches != want {
			t.Errorf("query %d: softscan %d != reference %d", qi, sres.Matches, want)
		}
		spres, err := splunk.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if spres.Matches != want {
			t.Errorf("query %d: splunksim %d != reference %d", qi, spres.Matches, want)
		}
	}
}

// TestPersistenceAcrossFacade exercises WriteSegments/Reopen through the
// public API with a follow-up template workflow on the reopened engine.
func TestPersistenceAcrossFacade(t *testing.T) {
	lines := sampleLines(2500)
	eng := Open(Config{})
	if err := eng.IngestLines(lines); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Reopen(Config{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Search(`parity AND error`, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Search(`parity AND error`, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matches != b.Matches {
		t.Fatalf("matches diverged across WriteSegments/Reopen: %d vs %d", a.Matches, b.Matches)
	}
	// Template tagging must work on the reopened engine.
	lib := ExtractTemplates(lines, TemplateParams{MaxChildren: 40, MinSupport: 10, MaxDepth: 10})
	res, err := loaded.Tag(lib, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lines != uint64(len(lines)) {
		t.Fatalf("tagging after reopen: %d lines", res.Lines)
	}
}
