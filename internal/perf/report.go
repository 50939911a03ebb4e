package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Schema identifies the BENCH_*.json layout this package reads and
// writes. Bump the trailing version on any incompatible change and teach
// Validate both forms for at least one PR.
const Schema = "mithrilog.bench/1"

// Report is the persistent perf trajectory: a schema tag plus an ordered
// list of runs (oldest first). The committed BENCH_<n>.json at the repo
// root holds one Report whose runs span the "before" and "after" of the
// PR that produced it; later PRs append runs or start a new file.
type Report struct {
	// Schema is always the Schema constant.
	Schema string `json:"schema"`
	// Bench is the PR number the file belongs to (BENCH_6.json -> 6).
	Bench int `json:"bench,omitempty"`
	// Runs is the recorded trajectory, oldest first.
	Runs []Run `json:"runs"`
}

// Run is one full execution of the workload matrix on one machine.
type Run struct {
	// Label names the tree state measured ("pre-pr6", "pr6", "dev", ...).
	Label string `json:"label"`
	// Timestamp is RFC3339 wall time of the run (informational only).
	Timestamp string `json:"timestamp,omitempty"`
	// GoVersion/GOOS/GOARCH/CPUs describe the machine; wall-clock numbers
	// are only comparable between runs with matching machine fields.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// Quick marks a reduced-size CI smoke run; quick numbers are noisy
	// and never used for regression gating.
	Quick bool `json:"quick,omitempty"`

	Workload WorkloadSpec `json:"workload"`
	Ingest   IngestResult `json:"ingest"`
	Queries  []QueryPoint `json:"queries"`
	// Regex is the literal-factor prefilter leg; absent from runs
	// recorded before the axis existed.
	Regex []RegexPoint `json:"regex,omitempty"`
	Micro MicroResults `json:"micro"`
}

// WorkloadSpec pins the workload so runs are comparable.
type WorkloadSpec struct {
	// Dataset is the loggen profile name.
	Dataset string `json:"dataset"`
	// Lines generated; RawBytes is their total size with newlines.
	Lines    int   `json:"lines"`
	RawBytes int64 `json:"raw_bytes"`
	// QueryMix is the number of distinct expressions in the mix.
	QueryMix int `json:"query_mix"`
	// Rounds is the number of queries issued per matrix point.
	Rounds int `json:"rounds"`
	// CacheBytes sizes the decompressed-page cache of the warm engine.
	CacheBytes int64 `json:"cache_bytes"`
	// Seed drives dataset generation.
	Seed int64 `json:"seed"`
}

// IngestResult is the ingest leg of the matrix: wall-clock cost of
// IngestBytes+Flush over the whole dataset on a fresh engine.
type IngestResult struct {
	WallMs    float64 `json:"wall_ms"`
	MBPerS    float64 `json:"mb_per_s"`
	LinesPerS float64 `json:"lines_per_s"`
	// AllocsPerLine is the allocation count per ingested line.
	AllocsPerLine float64 `json:"allocs_per_line"`
}

// QueryPoint is one cell of the query matrix: Rounds full-scan queries
// issued from InFlight workers against a cold (uncached) or warm
// (pre-warmed page cache) engine.
type QueryPoint struct {
	InFlight int `json:"in_flight"`
	// Cache is "cold" (no page cache: every query pays flash read, LZAH
	// decode, and tokenization) or "warm" (cache pre-warmed, hits re-enter
	// the pipeline at the hash filters).
	Cache   string  `json:"cache"`
	Queries int     `json:"queries"`
	WallMs  float64 `json:"wall_ms"`
	QPS     float64 `json:"qps"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	// Shards is the fleet width the point was measured against; 0 (from
	// reports recorded before the axis existed) means 1. Points with
	// Shards > 1 run the same full-scan mix through the scatter-gather
	// router, so their delta against the Shards = 1 points at the same
	// (in_flight, cache) is the router overhead.
	Shards int `json:"shards,omitempty"`
}

// ShardsOrOne normalizes the pre-axis encoding (0 = single engine).
func (q QueryPoint) ShardsOrOne() int {
	if q.Shards <= 0 {
		return 1
	}
	return q.Shards
}

// RegexPoint is one pattern of the regex leg: the same scan measured with
// the literal-factor index prefilter on its default path and again with
// it forced off (full scan), single in-flight, on a cold single-shard
// engine. The QPS/FullScanQPS ratio is the prefilter's wall-clock win;
// for the deliberate ∅-factor pattern both numbers take the fallback
// path and should agree to within noise.
type RegexPoint struct {
	// Pattern is the rex expression scanned.
	Pattern string `json:"pattern"`
	// Prefiltered reports whether the pattern yielded usable literal
	// factors (false = the ∅-factor fallback control).
	Prefiltered bool `json:"prefiltered"`
	// Queries is the number of scans issued per path.
	Queries int `json:"queries"`
	// QPS is default-path throughput; FullScanQPS re-measures the same
	// pattern with the prefilter disabled.
	QPS         float64 `json:"qps"`
	FullScanQPS float64 `json:"full_scan_qps"`
	// Speedup is QPS/FullScanQPS.
	Speedup float64 `json:"speedup"`
	// PagesSkippedPct is the share of data pages the prefilter proved
	// non-matching without reading (0 on fallback).
	PagesSkippedPct float64 `json:"pages_skipped_pct"`
	// Matches is the per-scan matching-line count (identical on both
	// paths by the differential oracle).
	Matches int `json:"matches"`
}

// MicroResults are single-goroutine microbenchmarks of the three scan-path
// engines, with allocation discipline measured directly.
type MicroResults struct {
	// TokenizeMBPerS runs the fused tokenize-and-probe pass a cold page
	// pays (Pipeline.FilterBlock) over page-sized blocks, in raw-text
	// MB/s. Runs recorded before the span representation streamed lines
	// through the word tokenizer alone here.
	TokenizeMBPerS float64 `json:"tokenize_mb_per_s"`
	// TokenizeAllocsPerLine is that pass's steady-state allocations per
	// line (the zero-alloc target of the raw-speed pass).
	TokenizeAllocsPerLine float64 `json:"tokenize_allocs_per_line"`
	// CuckooLookupNs is ns per single LookupBytes over a token stream.
	CuckooLookupNs float64 `json:"cuckoo_lookup_ns"`
	// CuckooBatchNs is ns per token for the batched 8-at-a-time lookup
	// path; zero in runs recorded before the API existed.
	CuckooBatchNs float64 `json:"cuckoo_batch_ns,omitempty"`
	// CuckooAllocsPerLookup is allocations per lookup (target: zero).
	CuckooAllocsPerLookup float64 `json:"cuckoo_allocs_per_lookup"`
	// LZAHDecodeMBPerS decompresses page-sized blocks into a reused arena.
	LZAHDecodeMBPerS float64 `json:"lzah_decode_mb_per_s"`
	// LZAHCompressMBPerS compresses the dataset text into blocks.
	LZAHCompressMBPerS float64 `json:"lzah_compress_mb_per_s"`
	// LZAHDecodeAllocsPerBlock is allocations per decompressed block with
	// a pre-grown destination (target: zero).
	LZAHDecodeAllocsPerBlock float64 `json:"lzah_decode_allocs_per_block"`
	// FilterWarmMBPerS runs the hash-filter pass over pre-tokenized
	// blocks (the page-cache hit path) in raw-text MB/s.
	FilterWarmMBPerS float64 `json:"filter_warm_mb_per_s"`
}

// Validate checks structural invariants of a decoded report: schema tag,
// non-empty runs, per-run machine fields, and a complete query matrix.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("perf: unknown schema %q (want %q)", r.Schema, Schema)
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("perf: report has no runs")
	}
	for i := range r.Runs {
		if err := r.Runs[i].validate(); err != nil {
			return fmt.Errorf("perf: run %d (%q): %w", i, r.Runs[i].Label, err)
		}
	}
	return nil
}

func (run *Run) validate() error {
	if run.Label == "" {
		return fmt.Errorf("missing label")
	}
	if run.GoVersion == "" || run.GOOS == "" || run.GOARCH == "" || run.CPUs <= 0 {
		return fmt.Errorf("incomplete machine fields")
	}
	w := run.Workload
	if w.Dataset == "" || w.Lines <= 0 || w.RawBytes <= 0 || w.QueryMix <= 0 || w.Rounds <= 0 {
		return fmt.Errorf("incomplete workload spec")
	}
	if run.Ingest.MBPerS <= 0 || run.Ingest.LinesPerS <= 0 {
		return fmt.Errorf("ingest leg missing or non-positive")
	}
	if len(run.Queries) == 0 {
		return fmt.Errorf("query matrix empty")
	}
	seen := map[string]bool{}
	for _, q := range run.Queries {
		if q.Cache != "cold" && q.Cache != "warm" {
			return fmt.Errorf("query point cache %q (want cold|warm)", q.Cache)
		}
		if q.InFlight <= 0 || q.QPS <= 0 || q.Queries <= 0 {
			return fmt.Errorf("query point %d/%s non-positive", q.InFlight, q.Cache)
		}
		if q.Shards < 0 {
			return fmt.Errorf("query point %d/%s negative shards", q.InFlight, q.Cache)
		}
		key := fmt.Sprintf("%d/%s/%d", q.InFlight, q.Cache, q.ShardsOrOne())
		if seen[key] {
			return fmt.Errorf("duplicate query point %s", key)
		}
		seen[key] = true
	}
	seenRe := map[string]bool{}
	for _, p := range run.Regex {
		if p.Pattern == "" {
			return fmt.Errorf("regex point with empty pattern")
		}
		if p.Queries <= 0 || p.QPS <= 0 || p.FullScanQPS <= 0 {
			return fmt.Errorf("regex point %q non-positive", p.Pattern)
		}
		if p.PagesSkippedPct < 0 || p.PagesSkippedPct > 100 {
			return fmt.Errorf("regex point %q pages_skipped_pct out of range", p.Pattern)
		}
		if seenRe[p.Pattern] {
			return fmt.Errorf("duplicate regex point %q", p.Pattern)
		}
		seenRe[p.Pattern] = true
	}
	if run.Micro.TokenizeMBPerS <= 0 || run.Micro.LZAHDecodeMBPerS <= 0 || run.Micro.CuckooLookupNs <= 0 {
		return fmt.Errorf("micro leg missing or non-positive")
	}
	return nil
}

// RegexPointFor returns the regex-leg point for a pattern, or false.
func (run *Run) RegexPointFor(pattern string) (RegexPoint, bool) {
	for _, p := range run.Regex {
		if p.Pattern == pattern {
			return p, true
		}
	}
	return RegexPoint{}, false
}

// Point returns the single-engine query point at (inFlight, cache), or
// false. Sharded points are addressed with PointAt.
func (run *Run) Point(inFlight int, cache string) (QueryPoint, bool) {
	return run.PointAt(inFlight, cache, 1)
}

// PointAt returns the query point at (inFlight, cache, shards), or false.
func (run *Run) PointAt(inFlight int, cache string, shards int) (QueryPoint, bool) {
	for _, q := range run.Queries {
		if q.InFlight == inFlight && q.Cache == cache && q.ShardsOrOne() == shards {
			return q, true
		}
	}
	return QueryPoint{}, false
}

// Last returns the most recent run, or false on an empty report.
func (r *Report) Last() (Run, bool) {
	if len(r.Runs) == 0 {
		return Run{}, false
	}
	return r.Runs[len(r.Runs)-1], true
}

// SortQueries orders a run's query matrix canonically (ascending shard
// count, cold before warm, then ascending in-flight), so reports diff
// cleanly.
func (run *Run) SortQueries() {
	sort.Slice(run.Queries, func(i, j int) bool {
		a, b := run.Queries[i], run.Queries[j]
		if a.ShardsOrOne() != b.ShardsOrOne() {
			return a.ShardsOrOne() < b.ShardsOrOne()
		}
		if a.Cache != b.Cache {
			return a.Cache == "cold"
		}
		return a.InFlight < b.InFlight
	})
}

// ReadReport decodes and validates a report file.
func ReadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeReport(f)
}

// DecodeReport decodes and validates a report stream.
func DecodeReport(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("perf: decode report: %w", err)
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return &rep, nil
}

// WriteReport validates and writes a report to path with a trailing
// newline, via a temp file rename so a crash never leaves a torn file.
func WriteReport(path string, rep *Report) error {
	if err := rep.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
