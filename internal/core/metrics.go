package core

import (
	"strconv"
	"time"

	"mithrilog/internal/hwsim"
	"mithrilog/internal/obs"
)

// engineMetrics holds the engine's hot-path instrumentation. Every field
// is an atomic-backed obs metric, so recording is lock-free and the
// instrumentation stays on permanently; the ingest benchmark bounds the
// overhead. Ingest counters are bumped once per flushed page (not per
// line), and search metrics once per query.
type engineMetrics struct {
	reg *obs.Registry

	// ingest path
	ingestLines       *obs.Counter
	ingestRawBytes    *obs.Counter
	ingestCompBytes   *obs.Counter
	ingestPages       *obs.Counter
	ingestTokens      *obs.Counter
	ingestCompressSec *obs.Counter
	ingestIndexSec    *obs.Counter
	flushes           *obs.Counter
	indexMemoryBytes  *obs.Gauge

	// search path
	searchQueries     *obs.CounterVec // path: accelerated | software
	searchMatches     *obs.Counter
	searchCandPages   *obs.Counter
	searchCachedPages *obs.Counter
	searchScannedRaw  *obs.Counter
	searchReturned    *obs.Counter
	searchStageSec    *obs.HistogramVec // stage: parse | plan | configure | scan
	searchWallSec     *obs.Histogram
	searchSimSec      *obs.CounterVec // component: index | stream | filter | return

	// regex path
	regexQueries       *obs.CounterVec // path: prefiltered | fullscan
	regexPagesSkipped  *obs.Counter
	regexPagesScanned  *obs.Counter
	regexCachedPages   *obs.Counter
	regexVerifiedLines *obs.Counter
	regexMatches       *obs.Counter

	// accelerator model
	pipelineCycles      *obs.CounterVec // pipeline: 0..N-1
	pipelineUtilization *obs.GaugeVec   // pipeline: 0..N-1
	effectiveFilterGBps *obs.Gauge
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	durBuckets := obs.DurationBuckets()
	return &engineMetrics{
		reg: reg,
		ingestLines: reg.Counter("mithrilog_ingest_lines_total",
			"Log lines written to storage pages."),
		ingestRawBytes: reg.Counter("mithrilog_ingest_raw_bytes_total",
			"Uncompressed bytes ingested (including newlines)."),
		ingestCompBytes: reg.Counter("mithrilog_ingest_compressed_bytes_total",
			"LZAH-compressed bytes written to data pages."),
		ingestPages: reg.Counter("mithrilog_ingest_pages_total",
			"Data pages flushed (compressed line groups)."),
		ingestTokens: reg.Counter("mithrilog_ingest_tokens_total",
			"Distinct (token, page) pairs inserted into the inverted index."),
		ingestCompressSec: reg.Counter("mithrilog_ingest_compress_seconds_total",
			"Host wall time spent in LZAH compression."),
		ingestIndexSec: reg.Counter("mithrilog_ingest_index_seconds_total",
			"Host wall time in the page indexer: the page dictionary, then inserting its tokens into the inverted index."),
		flushes: reg.Counter("mithrilog_engine_flushes_total",
			"Explicit flush operations (Flush, Snapshot, SealSegments, WriteSegments, Export); the seal a query runs over pending lines is not one."),
		indexMemoryBytes: reg.Gauge("mithrilog_index_memory_bytes",
			"Resident in-memory footprint of the inverted index (updated per indexed data page)."),
		searchQueries: reg.CounterVec("mithrilog_search_queries_total",
			"Queries executed, by evaluation path (accelerated = near-storage pipelines, software = host fallback).",
			"path"),
		searchMatches: reg.Counter("mithrilog_search_matches_total",
			"Lines matched across all queries."),
		searchCandPages: reg.Counter("mithrilog_search_candidate_pages_total",
			"Candidate data pages streamed through the filter, after index pruning."),
		searchCachedPages: reg.Counter("mithrilog_search_cached_pages_total",
			"Candidate pages served from the decompressed-page cache (no flash read, no decompression)."),
		searchScannedRaw: reg.Counter("mithrilog_search_scanned_raw_bytes_total",
			"Decompressed bytes that crossed the filter engines."),
		searchReturned: reg.Counter("mithrilog_search_returned_bytes_total",
			"Matching-line bytes returned to the host."),
		searchStageSec: reg.HistogramVec("mithrilog_search_stage_seconds",
			"Host wall time per query stage (parse, plan, configure, scan).",
			durBuckets, "stage"),
		searchWallSec: reg.Histogram("mithrilog_search_seconds",
			"End-to-end host wall time per query.", durBuckets),
		searchSimSec: reg.CounterVec("mithrilog_search_sim_seconds_total",
			"Simulated platform time per query component (index, stream, filter, return).",
			"component"),
		regexQueries: reg.CounterVec("mithrilog_regex_queries_total",
			"Regex queries executed, by evaluation path (prefiltered = literal factors probed through the index, fullscan = no usable factors).",
			"path"),
		regexPagesSkipped: reg.Counter("mithrilog_regex_pages_skipped_total",
			"Data pages the literal-factor prefilter proved cannot match and never decompressed."),
		regexPagesScanned: reg.Counter("mithrilog_regex_pages_scanned_total",
			"Data pages decompressed for regex queries (candidates when prefiltered, all pages on fallback)."),
		regexCachedPages: reg.Counter("mithrilog_regex_cached_pages_total",
			"Regex-scanned pages served from the decompressed-page cache."),
		regexVerifiedLines: reg.Counter("mithrilog_regex_verified_lines_total",
			"Lines evaluated by the rex matcher (token-filter survivors when prefiltered)."),
		regexMatches: reg.Counter("mithrilog_regex_matches_total",
			"Lines matched across all regex queries."),
		pipelineCycles: reg.CounterVec("mithrilog_hwsim_pipeline_cycles_total",
			"Busy cycles per filter pipeline across offloaded queries.",
			"pipeline"),
		pipelineUtilization: reg.GaugeVec("mithrilog_hwsim_pipeline_utilization",
			"Fraction of datapath capacity spent on raw text per pipeline, last offloaded query (1.0 = wire speed).",
			"pipeline"),
		effectiveFilterGBps: reg.Gauge("mithrilog_hwsim_effective_filter_gbps",
			"Effective filter throughput of the last offloaded query (Fig. 14 quantity)."),
	}
}

// stage records one search-stage wall duration.
func (m *engineMetrics) stage(name string, d time.Duration) {
	m.searchStageSec.WithLabelValues(name).Observe(d.Seconds())
}

// recordRegex publishes one finished regex query's prefilter counters.
func (m *engineMetrics) recordRegex(res *RegexResult) {
	path := "fullscan"
	if res.Prefiltered {
		path = "prefiltered"
	}
	m.regexQueries.WithLabelValues(path).Inc()
	m.regexPagesSkipped.Add(float64(res.TotalPages - res.CandidatePages))
	m.regexPagesScanned.Add(float64(res.CandidatePages))
	m.regexCachedPages.Add(float64(res.CachedPages))
	m.regexVerifiedLines.Add(float64(res.VerifiedLines))
	m.regexMatches.Add(float64(res.Matches))
}

// recordSearch publishes one finished query's counters, simulated timing
// components, and per-pipeline accelerator statistics.
func (m *engineMetrics) recordSearch(res *SearchResult, sys hwsim.SystemConfig, compressionRatio float64) {
	path := "software"
	if res.Offloaded {
		path = "accelerated"
	}
	m.searchQueries.WithLabelValues(path).Inc()
	m.searchMatches.Add(float64(res.Matches))
	m.searchCandPages.Add(float64(res.CandidatePages))
	m.searchCachedPages.Add(float64(res.CachedPages))
	m.searchScannedRaw.Add(float64(res.ScannedRawBytes))
	m.searchReturned.Add(float64(res.ReturnedBytes))
	m.searchSimSec.WithLabelValues("index").Add(res.IndexTime.Seconds())
	m.searchSimSec.WithLabelValues("stream").Add(res.StreamTime.Seconds())
	m.searchSimSec.WithLabelValues("filter").Add(res.FilterTime.Seconds())
	m.searchSimSec.WithLabelValues("return").Add(res.ReturnTime.Seconds())
	if res.Offloaded && len(res.PipelineCycles) > 0 {
		for i, c := range res.PipelineCycles {
			lbl := strconv.Itoa(i)
			m.pipelineCycles.WithLabelValues(lbl).Add(float64(c))
			m.pipelineUtilization.WithLabelValues(lbl).Set(res.PipelineUtilization[i])
		}
		m.effectiveFilterGBps.Set(
			sys.EffectiveFilterThroughput(res.ScannedRawBytes, res.MaxPipelineCycles, compressionRatio) / hwsim.GB)
	}
}
