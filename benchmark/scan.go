package main

import (
	"context"
	"fmt"
	"time"

	"mithrilog"
	"mithrilog/internal/core"
	"mithrilog/internal/query"
)

var scanOpts = mithrilog.SearchOptions{NoIndex: true}

// scanOp issues expression e and checks its match count against the oracle.
func scanOp(eng *mithrilog.Engine, e int, expected []int) (time.Duration, error) {
	start := time.Now()
	res, err := eng.Search(scanExprs[e], scanOpts)
	lat := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("search %q: %w", scanExprs[e], err)
	}
	if res.Matches != expected[e] {
		return 0, fmt.Errorf("search %q: %d matches, oracle says %d", scanExprs[e], res.Matches, expected[e])
	}
	return lat, nil
}

// scanPass runs the request list once, untimed: it fills the cache where
// there is one and settles the engine's pools before a timed run.
func scanPass(eng *mithrilog.Engine, expected []int) error {
	for e := range scanExprs {
		if _, err := scanOp(eng, e, expected); err != nil {
			return err
		}
	}
	return nil
}

func scanLoop(rc *runCtx, eng *mithrilog.Engine, expected []int) loop {
	return loop{
		clients: 1, segments: rc.segments, perSeg: rc.segOps,
		op: func(_, seg, i int) (time.Duration, error) {
			return scanOp(eng, (seg*rc.segOps+i)%len(scanExprs), expected)
		},
	}
}

func scanSetup(rc *runCtx) (*built, time.Duration, buildPhases, []int, error) {
	lines := rc.ds.Lines
	expected, err := tokenOracle(scanExprs, lines)
	if err != nil {
		return nil, 0, buildPhases{}, nil, err
	}
	cfg := scanConfig(rc.w.name, rawBytes(lines))
	var warm func(*mithrilog.Engine) error
	if cfg.CacheBytes > 0 {
		// One full scan decodes and tokenizes every page into the cache.
		warm = func(eng *mithrilog.Engine) error {
			_, err := scanOp(eng, 0, expected)
			return err
		}
	}
	b, setupTime, phases, err := setup(cfg, lines, warm)
	return b, setupTime, phases, expected, err
}

// measureScan is the timed run of scan_cold and scan_warm.
func measureScan(rc *runCtx) (*outcome, error) {
	b, setupTime, _, expected, err := scanSetup(rc)
	if err != nil {
		return nil, err
	}
	if err := scanPass(b.eng, expected); err != nil {
		return nil, err
	}
	l := scanLoop(rc, b.eng, expected)
	st, err := l.run(nil)
	if err != nil {
		return nil, err
	}
	return endToEndOutcome(st, setupTime, b.stats), nil
}

// layersScan is the traced run of scan_cold and scan_warm.
func layersScan(rc *runCtx) (*outcome, error) {
	b, _, phases, expected, err := scanSetup(rc)
	if err != nil {
		return nil, err
	}
	eng := b.eng
	if err := scanPass(eng, expected); err != nil {
		return nil, err
	}
	tr := newTracer()
	lm := newLayerMetrics(rc, b, phases)

	before := scrapeEngine(eng)
	out, err := ownLoops(func() loop { return scanLoop(rc, eng, expected) }, tr, lm)
	if err != nil {
		return nil, err
	}
	lm.fromEngineDeltas(before, scrapeEngine(eng), out.attempted)

	// The same ops again, one caller, at each successive entry point.
	cfg := scanConfig(rc.w.name, rawBytes(rc.ds.Lines))
	tw, err := newStack(b.stream, cfg.CacheBytes)
	if err != nil {
		return nil, err
	}
	copts := core.SearchOptions{NoIndex: true}
	ctx := context.Background()
	var queries []query.Query
	var leaf leafTimes
	coreBefore := scrapeHandler(tw.core.Obs())
	for e, expr := range scanExprs {
		q, err := query.Parse(expr)
		if err != nil {
			return nil, err
		}
		queries = append(queries, q)
		// counted wraps a call so that a wrong count fails the level.
		counted := func(level string, call func() (int, error)) func() error {
			return func() error {
				got, err := call()
				if err != nil {
					return fmt.Errorf("%s %q: %w", level, expr, err)
				}
				if got != expected[e] {
					return fmt.Errorf("%s %q: %d matches, oracle says %d", level, expr, got, expected[e])
				}
				return nil
			}
		}
		idC, err := tr.descend(e, []entry{
			{"facade", counted("facade", func() (int, error) {
				res, err := eng.Search(expr, scanOpts)
				return res.Matches, err
			})},
			{"sched", counted("sched", func() (int, error) {
				res, err := tw.sched.Search(ctx, q, copts)
				return res.Matches, err
			})},
			{"core", counted("core", func() (int, error) {
				res, err := tw.core.Search(q, copts)
				return res.Matches, err
			})},
		})
		if err != nil {
			return nil, err
		}
		lt, err := replayBest(func() (leafTimes, error) {
			lt, err := replayScan(tr, idC, e, tw.core.Device(), tw.cache, tw.pages, &q, nil, tw.cache == nil)
			if err == nil && int(lt.kept) != expected[e] {
				err = fmt.Errorf("replay %q: %d lines kept, oracle says %d", expr, lt.kept, expected[e])
			}
			return lt, err
		})
		if err != nil {
			return nil, err
		}
		leaf.add(lt)
		out.attempted += 4
	}
	coreAfter := scrapeHandler(tw.core.Obs())

	facade, schedT, coreT := tr.perOp("facade"), tr.perOp("sched"), tr.perOp("core")
	lm.set("facade.self_us_per_op", us(selfTime(facade, schedT)))
	lm.set("sched.self_us_per_op", us(selfTime(schedT, coreT)))
	lm.fromLeaf(leaf)

	// Reconciliation: the layers' self times must add back up to the op's
	// end-to-end time. The replay ran on one goroutine and the engine
	// stripes pages over its pipelines, so the replay's busy time counts
	// once per pipeline that can run at the same moment.
	search := histMean(coreBefore, coreAfter, "mithrilog_search_seconds", "")
	scanStage := histMean(coreBefore, coreAfter, "mithrilog_search_stage_seconds", `{stage="scan"}`)
	par := engineParallelism()
	busy := perCall(leaf.busy(), len(queries))
	model := busy / time.Duration(par)
	accounted := selfTime(facade, schedT) + selfTime(schedT, coreT) + selfTime(search, scanStage) + model
	rec := ratio(float64(accounted), float64(facade))
	lm.set("trace.reconcile_ratio", rec)
	out.notef("reconcile: facade %.2f ms vs facade self %.3f + sched self %.3f + core outside its scan stage %.3f + replay busy %.2f ms / %d pipelines = %.2f ms (engine's scan stage: %.2f ms); ratio %.3f",
		ms(facade), ms(selfTime(facade, schedT)), ms(selfTime(schedT, coreT)), ms(selfTime(search, scanStage)), ms(busy), par, ms(model), ms(scanStage), rec)
	if rec < 0.85 || rec > 1.15 {
		out.notef("reconcile: OUT OF RANGE 0.85-1.15: unaccounted span is the core page scan: the engine's scan stage takes %.2f ms, the leaf replay explains %.2f ms (%+.2f ms)",
			ms(scanStage), ms(model), ms(scanStage-model))
	}

	// Micro-measurements of leaves the replay does not time on its own.
	if err := lm.micro(tw.core.Device(), tw.core.Index(), tw.pages, queries); err != nil {
		return nil, err
	}
	return finishTrace(rc, tr, lm, out)
}
