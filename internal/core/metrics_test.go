package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mithrilog/internal/obs"
	"mithrilog/internal/query"
)

// TestEngineMetrics checks that the ingest and search hot paths publish
// coherent counters: exact line/page counts, per-pipeline utilization in
// (0, 1], and simulated-time components that sum consistently.
func TestEngineMetrics(t *testing.T) {
	e := NewEngine(Config{})
	var lines [][]byte
	for i := 0; i < 500; i++ {
		lines = append(lines, []byte(fmt.Sprintf("node%03d RAS KERNEL INFO cache parity error %d", i%16, i)))
	}
	if err := e.Ingest(lines); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	q, err := query.Parse("parity AND error")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Offloaded {
		t.Fatal("expected offloaded query")
	}
	if len(res.PipelineCycles) != e.cfg.System.Pipelines || len(res.PipelineUtilization) != e.cfg.System.Pipelines {
		t.Fatalf("pipeline stats: %d cycles, %d utilization, want %d",
			len(res.PipelineCycles), len(res.PipelineUtilization), e.cfg.System.Pipelines)
	}
	for i, u := range res.PipelineUtilization {
		if res.PipelineCycles[i] > 0 && (u <= 0 || u > 1) {
			t.Errorf("pipeline %d utilization %g out of (0,1]", i, u)
		}
	}

	var sb strings.Builder
	if err := e.Obs().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"mithrilog_ingest_lines_total 500",
		fmt.Sprintf("mithrilog_ingest_pages_total %d", e.DataPages()),
		fmt.Sprintf("mithrilog_ingest_raw_bytes_total %d", e.RawBytes()),
		fmt.Sprintf("mithrilog_ingest_compressed_bytes_total %d", e.CompressedBytes()),
		`mithrilog_search_queries_total{path="accelerated"} 1`,
		fmt.Sprintf("mithrilog_search_matches_total %d", res.Matches),
		fmt.Sprintf("mithrilog_search_candidate_pages_total %d", res.CandidatePages),
		"mithrilog_search_stage_seconds_count{stage=\"plan\"} 1",
		"mithrilog_search_seconds_count 1",
		"mithrilog_storage_page_writes_total",
		"mithrilog_hwsim_clock_hz 2e+08",
		"mithrilog_index_memory_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestIndexMemoryGaugeTracksIngest: mithrilog_index_memory_bytes follows
// the index footprint page by page between flushes, and a reopened engine
// publishes its rebuilt index's footprint without a flush of its own.
func TestIndexMemoryGaugeTracksIngest(t *testing.T) {
	e := NewEngine(Config{})
	gauge := func(e *Engine) int { return int(e.met.indexMemoryBytes.Value()) }
	for batch := 0; batch < 4; batch++ {
		var lines [][]byte
		for i := 0; i < 400; i++ {
			lines = append(lines, []byte(fmt.Sprintf("batch%d node%03d RAS KERNEL INFO token%d", batch, i%16, i)))
		}
		if err := e.Ingest(lines); err != nil {
			t.Fatal(err)
		}
		if got, want := gauge(e), e.IndexMemoryFootprint(); got != want {
			t.Fatalf("batch %d, %d pages, no flush: gauge %d, footprint %d", batch, e.DataPages(), got, want)
		}
	}
	if e.DataPages() == 0 {
		t.Fatal("ingest wrote no page before the flush")
	}
	var buf bytes.Buffer
	if err := e.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := ReopenEngine(Config{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gauge(e2), e2.IndexMemoryFootprint(); got != want || got == 0 {
		t.Fatalf("reopened: gauge %d, footprint %d", got, want)
	}
}

// TestEngineSharedRegistry verifies two engines can publish into one
// registry (counters merge) without panicking on re-registration.
func TestEngineSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	e1 := NewEngine(Config{Metrics: reg})
	e2 := NewEngine(Config{Metrics: reg})
	for _, e := range []*Engine{e1, e2} {
		if err := e.Ingest([][]byte{[]byte("shared registry line")}); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if e1.Obs() != reg || e2.Obs() != reg {
		t.Fatal("engines should expose the shared registry")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mithrilog_ingest_lines_total 2") {
		t.Errorf("shared counter should merge both engines:\n%s", sb.String())
	}
}

// TestSearchTraceSpans checks the core search path emits the documented
// stage spans with their attributes.
func TestSearchTraceSpans(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.Ingest([][]byte{[]byte("alpha beta"), []byte("gamma delta")}); err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse("alpha")
	if err != nil {
		t.Fatal(err)
	}
	root := obs.StartSpan("search")
	if _, err := e.Search(q, SearchOptions{Trace: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	d := root.Snapshot()
	var names []string
	for _, c := range d.Children {
		names = append(names, c.Name)
	}
	// Pending lines at search time force a flush stage first.
	want := []string{"flush", "index probe", "configure", "page scan"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
	if d.Attrs["query"] == "" || d.Attrs["simElapsedNs"] == "" {
		t.Errorf("root attrs = %v", d.Attrs)
	}
}
