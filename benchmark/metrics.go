package main

import (
	"fmt"
	"strings"
	"time"

	"mithrilog"
	"mithrilog/internal/index"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// defaultOutDir receives trace_<workload>.json; run.sh runs the harness from
// the checkout's root.
const defaultOutDir = "benchmark/out"

// endToEndOutcome turns a timed run into the seven end-to-end metrics. The
// four time-based ones are taken over the quieter half of the run.
func endToEndOutcome(st *runStats, setupTime time.Duration, stats mithrilog.Stats) *outcome {
	h := quieterHalf(st)
	n := len(h.latencies)
	o := &outcome{attempted: st.attempted, failed: st.failed, firstErr: st.firstErr}
	o.metrics = map[string]float64{
		"setup_s":                   setupTime.Seconds(),
		"throughput_ops_s":          ratio(float64(h.ops), h.wall.Seconds()),
		"latency_p50_ms":            ms(percentile(h.latencies, 0.5)),
		"latency_p90_ms":            ms(percentile(h.latencies, tail)),
		"cpu_ms_per_op":             ratio(ms(h.cpu), float64(h.ops)),
		"peak_rss_mb":               peakRSSMiB(),
		"stored_bytes_per_raw_byte": storedBytesPerRawByte(stats),
	}
	o.notef("timed run: %d ops in %d segments, %.2f s wall; metrics over the quieter %d segments, %.2f s wall: n=%d ops, %d samples beyond p%.0f",
		st.attempted, len(st.segOps), st.wall.Seconds(), h.segments, h.wall.Seconds(), n, n-percentileRank(n, tail), tail*100)
	if !percentileSupported(n, tail) {
		o.notef("fewer than %d samples beyond p%.0f (a smoke run, or ops failed): latency_p90_ms is not a percentile to quote", minBeyond, tail*100)
	}
	rates := make([]string, len(st.segOps))
	for i, ops := range st.segOps {
		rates[i] = fmt.Sprintf("%.4g", float64(ops)/st.segWall[i].Seconds())
	}
	o.notef("segment ops/s, all segments in order: %s", strings.Join(rates, " "))
	o.notef("latency ms over the quieter half: min %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f max %.3f",
		ms(percentile(h.latencies, 0)), ms(percentile(h.latencies, 0.25)), ms(percentile(h.latencies, 0.5)),
		ms(percentile(h.latencies, 0.75)), ms(percentile(h.latencies, 0.9)), ms(percentile(h.latencies, 1)))
	return o
}

// layerMetrics collects a traced run's per-layer metrics; every name in
// perLayer is present from the start, so a bypassed layer reports 0.
type layerMetrics struct {
	m map[string]float64
}

func (lm *layerMetrics) set(name string, v float64) { lm.m[name] = v }

// fill sets a metric nothing has measured yet.
func (lm *layerMetrics) fill(name string, v float64) {
	if lm.m[name] == 0 {
		lm.m[name] = v
	}
}

// newLayerMetrics fills in what set-up alone determines: the write path's
// cost split and the space the stored form takes.
func newLayerMetrics(rc *runCtx, b *built, phases buildPhases) *layerMetrics {
	lm := &layerMetrics{m: map[string]float64{}}
	for _, spec := range perLayer {
		lm.m[spec.Name] = 0
	}
	st := b.ingestStats
	raw := float64(st.RawBytes)
	ingest := b.phases.ingest + b.phases.flush
	lm.set("loggen.generate_s", rc.genTime.Seconds())
	lm.set("core.ingest_mb_s", mbPerSec(int64(st.RawBytes), ingest))
	lm.set("core.ingest_compress_share", ratio(b.ingestObs["mithrilog_ingest_compress_seconds_total"], ingest.Seconds()))
	lm.set("core.ingest_index_share", ratio(b.ingestObs["mithrilog_ingest_index_seconds_total"], ingest.Seconds()))
	lm.set("core.flush_ms", ms(phases.flush))
	lm.set("core.write_segments_ms", ms(phases.write))
	lm.set("core.reopen_ms", ms(phases.reopen))
	lm.set("index.bytes_per_raw_byte", ratio(float64(st.IndexMemoryBytes), raw))
	lm.set("lzah.compressed_bytes_per_raw_byte", ratio(float64(st.CompressedBytes), raw))
	lm.set("storage.page_writes_per_raw_mb", ratio(b.ingestObs["mithrilog_storage_page_writes_total"], raw/1e6))
	lm.set("storage.segment_stream_bytes_per_raw_byte", ratio(float64(len(b.stream)), raw))
	return lm
}

func histMean(before, after scrape, family, labels string) time.Duration {
	sum := after.delta(before, family+"_sum"+labels)
	cnt := after.delta(before, family+"_count"+labels)
	return time.Duration(ratio(sum, cnt) * float64(time.Second))
}

// fromEngineDeltas derives the count-based layer metrics from two scrapes
// of the engine's own registry taken around `ops` operations.
func (lm *layerMetrics) fromEngineDeltas(before, after scrape, ops int) {
	n := float64(ops)
	d := func(key string) float64 { return after.delta(before, key) }

	lm.set("sched.wait_ms_per_op", d("mithrilog_sched_wait_seconds_sum")*1e3/n)
	lm.set("sched.rejected", d("mithrilog_sched_rejected_total"))
	hits, misses := d("mithrilog_cache_hits_total"), d("mithrilog_cache_misses_total")
	lm.set("sched.cache_hit_ratio", ratio(hits, hits+misses))
	lm.set("sched.cache_invalidations", d("mithrilog_cache_invalidations_total"))
	lm.set("sched.cache_evictions", d("mithrilog_cache_evictions_total"))
	lm.set("sched.cache_bytes", after["mithrilog_cache_bytes"])

	lm.set("query.parse_us", us(histMean(before, after, "mithrilog_search_stage_seconds", `{stage="parse"}`)))
	lm.set("core.search_ms_per_op", ms(histMean(before, after, "mithrilog_search_seconds", "")))
	lm.set("core.plan_ms_per_op", ms(histMean(before, after, "mithrilog_search_stage_seconds", `{stage="plan"}`)))
	lm.set("core.configure_ms_per_op", ms(histMean(before, after, "mithrilog_search_stage_seconds", `{stage="configure"}`)))
	lm.set("core.scan_ms_per_op", ms(histMean(before, after, "mithrilog_search_stage_seconds", `{stage="scan"}`)))
	searches := after.deltaPrefix(before, "mithrilog_search_queries_total")
	cand := d("mithrilog_search_candidate_pages_total")
	lm.set("core.candidate_pages_per_op", ratio(cand, searches))
	lm.set("core.pages_scanned_per_match", ratio(cand, d("mithrilog_search_matches_total")))
	lm.set("core.regex_verified_lines_per_match", ratio(d("mithrilog_regex_verified_lines_total"), d("mithrilog_regex_matches_total")))

	lm.set("storage.page_reads_per_op", after.deltaPrefix(before, "mithrilog_storage_page_reads_total")/n)
	lm.set("storage.read_bytes_per_op", after.deltaPrefix(before, "mithrilog_storage_read_bytes_total")/n)

	lm.set("router.shards_queried_per_op", ratio(d("mithrilog_router_shard_queries_total"), d("mithrilog_router_queries_total")))
	lm.set("router.partial_results", d("mithrilog_router_partial_results_total"))
	bad := 0.0
	for key := range after {
		if strings.HasPrefix(key, "mithrilog_http_requests_total") && !strings.Contains(key, `code="2`) {
			bad += d(key)
		}
	}
	lm.set("server.non_2xx", bad)
}

// fromLeaf derives the leaf-package rates from a replay.
// It only fills metrics not measured yet, so the sample replay of micro adds
// the stages the op replay skipped without overwriting the ones it timed.
func (lm *layerMetrics) fromLeaf(l leafTimes) {
	if l.viewed > 0 {
		lm.fill("storage.view_us_per_page", us(l.view)/float64(l.viewed))
		lm.fill("lzah.decode_mb_s", mbPerSec(l.decodedBytes, l.decode))
	}
	if l.tokenize > 0 {
		lm.fill("tokenizer.mb_s", mbPerSec(l.tokenizedBytes, l.tokenize))
	}
	if l.filter > 0 {
		lm.fill("tokenizer.words_per_raw_byte", ratio(float64(l.words), float64(l.filteredBytes)))
		lm.fill("filter.tokenized_mb_s", mbPerSec(l.filteredBytes, l.filter))
	}
	if l.filteredLines > 0 {
		lm.fill("filter.kept_line_ratio", ratio(float64(l.kept), float64(l.filteredLines)))
	}
	if l.verified > 0 {
		lm.fill("rex.match_ns_per_line", float64(l.match.Nanoseconds())/float64(l.verified))
	}
	if l.lookups > 0 {
		lm.fill("index.lookup_us", us(l.lookup)/float64(l.lookups))
	}
}

// micro measures the leaves a replay does not time on its own: cuckoo
// lookups (scalar and batched) against the queries' compiled tables, the
// LZAH encoder, index lookups of the queries' positive tokens, and, when
// the replay ran entirely from the cache, decode and tokenize on a sample
// of pages so that "no change" on a warm workload is a number, not a blank.
func (lm *layerMetrics) micro(dev *storage.Device, ix *index.Index, pages []storage.PageID, queries []query.Query) error {
	const samplePages = 256
	sample := pages
	if len(sample) > samplePages {
		sample = sample[:samplePages]
	}
	if lm.m["lzah.decode_mb_s"] == 0 || lm.m["tokenizer.mb_s"] == 0 {
		// The replay did not time these stages apart (it ran from the
		// cache, or through the fused FilterBlock): time them on the
		// sample. Without a query of the workload's own any token query
		// makes the replay tokenize, and its filter figures are dropped.
		q := query.Single(query.NewTerm("kernel:"))
		if len(queries) > 0 {
			q = queries[0]
		}
		lt, err := replayScan(nil, 0, 0, dev, nil, sample, &q, nil, false)
		if err != nil {
			return err
		}
		if len(queries) == 0 {
			lt.filter, lt.filteredLines = 0, 0
		}
		lm.fromLeaf(lt)
	}
	enc, err := encodeMicro(dev, sample)
	if err != nil {
		return err
	}
	lm.set("lzah.encode_mb_s", enc)
	if len(queries) > 0 {
		block, err := decodePage(dev, pages[0])
		if err != nil {
			return err
		}
		scalar, batch, err := cuckooMicro(queries, block)
		if err != nil {
			return err
		}
		lm.set("cuckoo.lookup_ns", scalar)
		lm.set("cuckoo.lookup_batch_ns", batch)
	}
	if ix != nil && lm.m["index.lookup_us"] == 0 {
		var total time.Duration
		n := 0
		for pass := 0; pass < 20; pass++ {
			for _, q := range queries {
				for _, tok := range q.Tokens() {
					start := time.Now()
					if _, err := ix.Lookup(tok); err != nil {
						return fmt.Errorf("index lookup %q: %w", tok, err)
					}
					total += time.Since(start)
					n++
				}
			}
		}
		lm.set("index.lookup_us", us(perCall(total, n)))
	}
	return nil
}
