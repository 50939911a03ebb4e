package main

import (
	"bytes"
	"fmt"
	"time"

	"mithrilog"
	"mithrilog/internal/core"
)

// ingestOpLines is one ingest op: a single IngestBytes of this many lines.
const ingestOpLines = 16384

// ingestRun is the ingest_stream loop: every segment opens a fresh engine,
// feeds it the whole dataset in ingestOpLines-line ops, and flushes it.
type ingestRun struct {
	lines [][]byte
	eng   *mithrilog.Engine // the current segment's engine; the last one survives the loop
	obs   scrape            // write-path counters summed over finished segments
	// ingest and flush sum the time inside IngestBytes and Flush.
	ingest, flush time.Duration
	segments      int
}

func (r *ingestRun) batch(i int) [][]byte {
	lo := i * ingestOpLines
	hi := lo + ingestOpLines
	if hi > len(r.lines) {
		hi = len(r.lines)
	}
	return r.lines[lo:hi]
}

func (r *ingestRun) loop(rc *runCtx) loop {
	return loop{
		clients: 1, segments: rc.segments, perSeg: rc.segOps,
		begin: func(int) error {
			r.eng = mithrilog.Open(mithrilog.Config{})
			return nil
		},
		op: func(_, _, i int) (time.Duration, error) {
			d, err := timed(func() error { return r.eng.IngestBytes(r.batch(i)) })
			r.ingest += d
			return d, err
		},
		end: func(int) error {
			d, err := timed(r.eng.Flush)
			r.flush += d
			r.segments++
			for k, v := range scrapeEngine(r.eng) {
				r.obs[k] += v
			}
			return err
		},
	}
}

// durabilityCheck is the gate at the end of ingest_stream: the last engine
// goes through WriteSegments and Reopen, and the reopened engine must hold
// the same line count and answer all eight expressions as the oracle does.
// Each mismatch is a failed op.
func durabilityCheck(eng *mithrilog.Engine, expected []int, o *outcome) error {
	var buf bytes.Buffer
	if err := eng.WriteSegments(&buf); err != nil {
		return fmt.Errorf("durability: write segments: %w", err)
	}
	re, err := mithrilog.Reopen(mithrilog.Config{}, &buf)
	if err != nil {
		return fmt.Errorf("durability: reopen: %w", err)
	}
	check := func(err error) {
		o.attempted++
		if err != nil {
			o.failed++
			if o.firstErr == nil {
				o.firstErr = err
			}
		}
	}
	if got, want := re.Stats().Lines, eng.Stats().Lines; got != want {
		check(fmt.Errorf("durability: reopened engine holds %d lines, the written one %d", got, want))
	} else {
		check(nil)
	}
	for e := range scanExprs {
		_, err := scanOp(re, e, expected)
		check(err)
	}
	return re.Close()
}

func ingestSetup(rc *runCtx) (*built, time.Duration, buildPhases, []int, error) {
	expected, err := tokenOracle(scanExprs, rc.ds.Lines)
	if err != nil {
		return nil, 0, buildPhases{}, nil, err
	}
	b, setupTime, phases, err := setup(mithrilog.Config{}, rc.ds.Lines, nil)
	return b, setupTime, phases, expected, err
}

// measureIngest is the timed run of ingest_stream.
func measureIngest(rc *runCtx) (*outcome, error) {
	b, setupTime, _, expected, err := ingestSetup(rc)
	if err != nil {
		return nil, err
	}
	if err := b.eng.Close(); err != nil {
		return nil, err
	}
	r := &ingestRun{lines: rc.ds.Lines, obs: scrape{}}
	// The untimed pass over the request list: one whole segment.
	warm := r.loop(rc)
	warm.segments = 1
	if _, err := warm.run(nil); err != nil {
		return nil, err
	}
	l := r.loop(rc)
	st, err := l.run(nil)
	if err != nil {
		return nil, err
	}
	o := endToEndOutcome(st, setupTime, b.stats)
	if err := durabilityCheck(r.eng, expected, o); err != nil {
		return nil, err
	}
	return o, nil
}

// layersIngest is the traced run of ingest_stream.
func layersIngest(rc *runCtx) (*outcome, error) {
	b, _, phases, expected, err := ingestSetup(rc)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	lm := newLayerMetrics(rc, b, phases)

	r := &ingestRun{lines: rc.ds.Lines, obs: scrape{}}
	out, err := ownLoops(func() loop { return r.loop(rc) }, tr, lm)
	if err != nil {
		return nil, err
	}
	if err := durabilityCheck(r.eng, expected, out); err != nil {
		return nil, err
	}
	// The write path's own split, from the registries of the loop's engines.
	wall := r.ingest + r.flush
	raw := r.obs["mithrilog_ingest_raw_bytes_total"]
	lm.set("core.ingest_mb_s", mbPerSec(int64(raw), wall))
	lm.set("core.ingest_compress_share", ratio(r.obs["mithrilog_ingest_compress_seconds_total"], wall.Seconds()))
	lm.set("core.ingest_index_share", ratio(r.obs["mithrilog_ingest_index_seconds_total"], wall.Seconds()))
	lm.set("core.flush_ms", ms(r.flush)/float64(r.segments))
	lm.set("storage.page_writes_per_raw_mb", ratio(r.obs["mithrilog_storage_page_writes_total"], raw/1e6))

	// Each op again at the facade and at the core engine. The engines take
	// every batch 1+layerReps times; ingest cost does not depend on what
	// an engine already holds.
	fe := mithrilog.Open(mithrilog.Config{})
	ce := core.NewEngine(core.Config{})
	calls := 0
	for i := 0; i < rc.segOps; i++ {
		batch := r.batch(i)
		if _, err := tr.descend(i, []entry{
			{"facade", func() error { return fe.IngestBytes(batch) }},
			{"core", func() error { return ce.Ingest(batch) }},
		}); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		calls += 1 + layerReps
		out.attempted += 2
	}
	if err := fe.Close(); err != nil {
		return nil, err
	}
	if err := ce.Flush(); err != nil {
		return nil, err
	}
	coreObs := scrapeHandler(ce.Obs())
	facade, coreT := tr.perOp("facade"), tr.perOp("core")
	lm.set("facade.self_us_per_op", us(selfTime(facade, coreT)))
	// Reconciliation for the write path: facade self time plus the two
	// stages the engine's registry times (LZAH compression, index insert)
	// against the op's time; the remainder is line batching, page-fit
	// retries and the segment append, which nothing times from outside.
	stages := time.Duration((coreObs["mithrilog_ingest_compress_seconds_total"] + coreObs["mithrilog_ingest_index_seconds_total"]) / float64(calls) * float64(time.Second))
	rec := ratio(float64(selfTime(facade, coreT)+stages), float64(facade))
	lm.set("trace.reconcile_ratio", rec)
	out.notef("reconcile: facade %.2f ms/op vs facade self %.3f + LZAH compression and index insert %.2f ms/op (core %.2f ms/op); ratio %.3f",
		ms(facade), ms(selfTime(facade, coreT)), ms(stages), ms(coreT), rec)

	tw, err := newStack(b.stream, 0)
	if err != nil {
		return nil, err
	}
	if err := lm.micro(tw.core.Device(), nil, tw.pages, nil); err != nil {
		return nil, err
	}
	return finishTrace(rc, tr, lm, out)
}
