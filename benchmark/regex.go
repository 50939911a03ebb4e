package main

import (
	"context"
	"fmt"
	"time"

	"mithrilog"
	"mithrilog/internal/core"
	"mithrilog/internal/query"
	"mithrilog/internal/rex"
)

// regexPatterns is one regex_grep round: the prefiltered patterns, then the
// fallback pattern.
func regexPatterns() []string {
	return append(append([]string(nil), regexPrefiltered...), regexFallback)
}

// grepOp issues one pattern and checks its match count against Go's regexp.
func grepOp(eng *mithrilog.Engine, pattern string, want int) (mithrilog.RegexResult, error) {
	res, err := eng.SearchRegexOpts(context.Background(), "", pattern, mithrilog.RegexOptions{})
	if err != nil {
		return res, fmt.Errorf("grep %q: %w", pattern, err)
	}
	if res.Matches != want {
		return res, fmt.Errorf("grep %q: %d matches, Go regexp says %d", pattern, res.Matches, want)
	}
	return res, nil
}

// grepRound is one op: every pattern of the round, in order.
func grepRound(eng *mithrilog.Engine, patterns []string, expected []int) (time.Duration, error) {
	return timed(func() error {
		for i, p := range patterns {
			if _, err := grepOp(eng, p, expected[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

func regexLoop(rc *runCtx, eng *mithrilog.Engine, patterns []string, expected []int) loop {
	return loop{
		clients: 1, segments: rc.segments, perSeg: rc.segOps,
		op: func(_, _, _ int) (time.Duration, error) { return grepRound(eng, patterns, expected) },
	}
}

func regexSetup(rc *runCtx) (*built, time.Duration, buildPhases, []string, []int, error) {
	patterns := regexPatterns()
	expected, err := regexOracle(patterns, rc.ds.Lines)
	if err != nil {
		return nil, 0, buildPhases{}, nil, nil, err
	}
	b, setupTime, phases, err := setup(mithrilog.Config{}, rc.ds.Lines, nil)
	return b, setupTime, phases, patterns, expected, err
}

// measureRegex is the timed run of regex_grep.
func measureRegex(rc *runCtx) (*outcome, error) {
	b, setupTime, _, patterns, expected, err := regexSetup(rc)
	if err != nil {
		return nil, err
	}
	if _, err := grepRound(b.eng, patterns, expected); err != nil {
		return nil, err
	}
	l := regexLoop(rc, b.eng, patterns, expected)
	st, err := l.run(nil)
	if err != nil {
		return nil, err
	}
	return endToEndOutcome(st, setupTime, b.stats), nil
}

// factorQuery lowers a pattern's required tokens into the token query the
// regex planner probes the index with: one intersection set per conjunct.
func factorQuery(f rex.Factors) query.Query {
	sets := make([]query.Intersection, 0, len(f.Conjuncts))
	for _, conj := range f.Conjuncts {
		var set query.Intersection
		for _, tok := range conj {
			set.Terms = append(set.Terms, query.NewTerm(tok))
		}
		sets = append(sets, set)
	}
	return query.New(sets...)
}

// layersRegex is the traced run of regex_grep.
func layersRegex(rc *runCtx) (*outcome, error) {
	b, _, phases, patterns, expected, err := regexSetup(rc)
	if err != nil {
		return nil, err
	}
	eng := b.eng
	if _, err := grepRound(eng, patterns, expected); err != nil {
		return nil, err
	}
	tr := newTracer()
	lm := newLayerMetrics(rc, b, phases)

	before := scrapeEngine(eng)
	out, err := ownLoops(func() loop { return regexLoop(rc, eng, patterns, expected) }, tr, lm)
	if err != nil {
		return nil, err
	}
	lm.fromEngineDeltas(before, scrapeEngine(eng), out.attempted)

	tw, err := newStack(b.stream, 0)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var leaf leafTimes
	var factorTime time.Duration
	var skippedPre, totalPre, skippedFall, totalFall int
	var factorQueries []query.Query
	for i, pattern := range patterns {
		counted := func(level string, call func() (int, error)) func() error {
			return func() error {
				got, err := call()
				if err != nil {
					return fmt.Errorf("%s grep %q: %w", level, pattern, err)
				}
				if got != expected[i] {
					return fmt.Errorf("%s grep %q: %d matches, Go regexp says %d", level, pattern, got, expected[i])
				}
				return nil
			}
		}
		var cres core.RegexResult
		idC, err := tr.descend(i, []entry{
			{"facade", counted("facade", func() (int, error) {
				res, err := eng.SearchRegexOpts(ctx, "", pattern, mithrilog.RegexOptions{})
				return res.Matches, err
			})},
			{"sched", counted("sched", func() (int, error) {
				res, err := tw.sched.SearchRegex(ctx, pattern, core.RegexOptions{})
				return res.Matches, err
			})},
			{"core", counted("core", func() (int, error) {
				var err error
				cres, err = tw.core.SearchRegexOpts(pattern, core.RegexOptions{})
				return cres.Matches, err
			})},
		})
		if err != nil {
			return nil, err
		}
		if cres.Prefiltered {
			skippedPre += cres.TotalPages - cres.CandidatePages
			totalPre += cres.TotalPages
		} else {
			skippedFall += cres.TotalPages - cres.CandidatePages
			totalFall += cres.TotalPages
		}

		// Leaf replay: compile and factor extraction, index probes of the
		// factor tokens, then the candidate pages on one goroutine, which
		// is also how the engine runs a regex scan.
		lt, err := replayBest(func() (leafTimes, error) {
			start := time.Now()
			re, err := rex.Compile(pattern)
			if err != nil {
				return leafTimes{}, err
			}
			factors := rex.LiteralFactors(pattern)
			compile := time.Since(start)
			pages := tw.pages
			var fq *query.Query
			var lookup time.Duration
			var lookups int
			if factors.Usable() {
				q := factorQuery(factors)
				fq = &q
				var full bool
				pages, full, lookup, lookups, err = planPages(tw.core, q)
				if err != nil {
					return leafTimes{}, err
				}
				if full {
					pages = tw.pages
				}
			}
			if len(pages) != cres.CandidatePages {
				return leafTimes{}, fmt.Errorf("replay of %q walks %d pages, the engine scanned %d", pattern, len(pages), cres.CandidatePages)
			}
			lt, err := replayScan(tr, idC, i, tw.core.Device(), nil, pages, fq, re, false)
			if err == nil && int(lt.matched) != expected[i] {
				err = fmt.Errorf("replay grep %q: %d lines matched, Go regexp says %d", pattern, lt.matched, expected[i])
			}
			lt.compile, lt.lookup, lt.lookups = compile, lookup, lookups
			return lt, err
		})
		if err != nil {
			return nil, err
		}
		if f := rex.LiteralFactors(pattern); f.Usable() {
			factorQueries = append(factorQueries, factorQuery(f))
		}
		factorTime += lt.compile
		leaf.add(lt)
		out.attempted += 4
	}
	n := len(patterns)
	facade, schedT, coreT := tr.perOp("facade"), tr.perOp("sched"), tr.perOp("core")
	// An op is a round of n patterns; spans are per pattern.
	lm.set("facade.self_us_per_op", us(selfTime(facade, schedT))*float64(n))
	lm.set("sched.self_us_per_op", us(selfTime(schedT, coreT))*float64(n))
	lm.set("core.regex_ms_per_op", ms(coreT)*float64(n))
	lm.set("core.regex_pages_skipped_ratio", ratio(float64(skippedPre), float64(totalPre)))
	lm.set("core.regex_fallback_skipped_ratio", ratio(float64(skippedFall), float64(totalFall)))
	lm.set("rex.factors_us", us(perCall(factorTime, n)))
	lm.fromLeaf(leaf)

	busy := perCall(leaf.busy(), n)
	accounted := selfTime(facade, schedT) + selfTime(schedT, coreT) + busy
	rec := ratio(float64(accounted), float64(facade))
	lm.set("trace.reconcile_ratio", rec)
	out.notef("reconcile (per pattern): facade %.2f ms vs facade self %.3f + sched self %.3f + leaf replay busy %.2f ms (regex scans run on one pipeline; core span %.2f ms); ratio %.3f",
		ms(facade), ms(selfTime(facade, schedT)), ms(selfTime(schedT, coreT)), ms(busy), ms(coreT), rec)

	if err := lm.micro(tw.core.Device(), nil, tw.pages, factorQueries); err != nil {
		return nil, err
	}
	return finishTrace(rc, tr, lm, out)
}
