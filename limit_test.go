package mithrilog

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mithrilog/internal/loggen"
)

// This file pins what a limited query owes its caller: the limit smallest
// matching lines in canonical byte order, an exact count of every match,
// the same bytes at every fleet width, and memory that grows with the
// limit rather than with the number of matches.

// limitCase is one query shape run with and without a limit.
type limitCase struct {
	name string
	// run executes the case with the given limit (≤ 0: every line) and
	// reports the count, the lines, and the pages served from the cache.
	run func(e *Engine, limit int) (matches int, lines []string, cached int, err error)
	// usesCache is false for the host software fallback, which never
	// reads the device-side page cache.
	usesCache bool
}

func tokenCase(name, expr string, noIndex, offloaded bool) limitCase {
	return limitCase{name: name, usesCache: offloaded, run: func(e *Engine, limit int) (int, []string, int, error) {
		res, err := e.Search(expr, SearchOptions{CollectLines: true, Limit: limit, NoIndex: noIndex})
		if err == nil && res.Offloaded != offloaded {
			return 0, nil, 0, fmt.Errorf("offloaded = %v, want %v", res.Offloaded, offloaded)
		}
		return res.Matches, res.Lines, res.CachedPages, err
	}}
}

func regexCase(name, pattern string, noPrefilter, prefiltered bool) limitCase {
	return limitCase{name: name, usesCache: true, run: func(e *Engine, limit int) (int, []string, int, error) {
		res, err := e.SearchRegexOpts(context.Background(), "", pattern, RegexOptions{CollectLines: true, Limit: limit, NoPrefilter: noPrefilter})
		if err == nil && res.Prefiltered != prefiltered {
			return 0, nil, 0, fmt.Errorf("prefiltered = %v, want %v", res.Prefiltered, prefiltered)
		}
		return res.Matches, res.Lines, res.CachedPages, err
	}}
}

// TestLimitIsCanonicalPrefix checks every limited answer against the
// sorted unlimited answer cut to the limit, on every scan path, at widths
// 1 and 4, with no cache and with a cold and a warm one, and demands that
// the width-1 and width-4 answers are byte-identical. The dataset repeats
// some lines, so the selection's ties are exercised.
func TestLimitIsCanonicalPrefix(t *testing.T) {
	ds := loggen.Generate(loggen.Liberty2, 2000, 3)
	lines := append([][]byte(nil), ds.Lines...)
	lines = append(lines, ds.Lines[:300]...)
	lines = append(lines, ds.Lines[100:200]...)

	// Nine intersection sets: one more than the cuckoo tables hold.
	const nineSets = `kernel: OR pbs_mom: OR ib_sm.x OR sshd(pam_unix) OR ntpd OR crond OR mmfs: OR ganglia OR syslog-ng`
	cases := []limitCase{
		tokenCase("token indexed", `session AND opened`, false, true),
		tokenCase("token match-heavy", `kernel:`, false, true),
		tokenCase("token noindex", `error AND NOT kernel:`, true, true),
		tokenCase("token software fallback", nineSets, false, false),
		regexCase("regex prefiltered", ` session (opened|closed) for `, false, true),
		regexCase("regex noprefilter", ` session (opened|closed) for `, true, false),
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"width 1", Config{}},
		{"width 1 cached", Config{CacheBytes: 64 << 20}},
		{"width 4", Config{Shards: 4}},
		{"width 4 cached", Config{Shards: 4, CacheBytes: 64 << 20}},
	}
	// answers[case/limit/warm] is the first answer seen, and from[…] the
	// configuration that gave it; every other one must repeat it byte for
	// byte.
	answers := make(map[string][]string)
	from := make(map[string]string)
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			e := Open(c.cfg)
			defer e.Close()
			if err := e.IngestBytes(lines); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			cached := c.cfg.CacheBytes > 0
			for _, lc := range cases {
				all, unlimited, _, err := lc.run(e, 0)
				if err != nil {
					t.Fatalf("%s unlimited: %v", lc.name, err)
				}
				if all < 8 || all != len(unlimited) {
					t.Fatalf("%s: %d matches, %d lines; the case needs more than 7 matches", lc.name, all, len(unlimited))
				}
				canonical := sortedStrings(unlimited)
				for _, limit := range []int{1, 7, 100, all, all + 1} {
					states := []string{"uncached"}
					if cached {
						// Flush drops every cached page: the first run is cold.
						if err := e.Flush(); err != nil {
							t.Fatal(err)
						}
						states = []string{"cold", "warm"}
					}
					for _, state := range states {
						matches, got, cachedPages, err := lc.run(e, limit)
						if err != nil {
							t.Fatalf("%s limit %d %s: %v", lc.name, limit, state, err)
						}
						if wantCached := state == "warm" && lc.usesCache; (cachedPages > 0) != wantCached {
							t.Fatalf("%s limit %d %s: %d cached pages", lc.name, limit, state, cachedPages)
						}
						if matches != all {
							t.Errorf("%s limit %d %s: %d matches, unlimited %d", lc.name, limit, state, matches, all)
						}
						want := canonical[:min(limit, all)]
						if !equalLines(got, want) {
							t.Errorf("%s limit %d %s: not the canonical prefix (first diff: %s)", lc.name, limit, state, firstDiff(got, want))
						}
						key := fmt.Sprintf("%s/%d/%v", lc.name, limit, state == "warm")
						if first, ok := answers[key]; !ok {
							answers[key], from[key] = got, c.name
						} else if !equalLines(got, first) {
							t.Errorf("%s limit %d %s: answer differs from %s's", lc.name, limit, state, from[key])
						}
					}
				}
			}
		})
	}
}

// queryAllocBytes reports the bytes one run of query allocates on the
// heap: the least of a few runs after a warm-up, so one-time growth and
// stray background allocation do not count.
func queryAllocBytes(t *testing.T, query func() error) uint64 {
	t.Helper()
	if err := query(); err != nil {
		t.Fatal(err)
	}
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		if err := query(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestLimitedQueryMemoryIsBounded is the overload case: a match-heavy
// query with a small limit on a 4-shard fleet must not allocate in
// proportion to the matches it counts, and a client-chosen huge limit
// must not allocate in proportion to itself.
func TestLimitedQueryMemoryIsBounded(t *testing.T) {
	const n = 5000
	ds := loggen.Generate(loggen.Liberty2, 4*n, 9)
	allocFor := func(lines [][]byte, limit int) (uint64, int) {
		e := Open(Config{Shards: 4})
		defer e.Close()
		if err := e.IngestBytes(lines); err != nil {
			t.Fatal(err)
		}
		var matches int
		allocated := queryAllocBytes(t, func() error {
			res, err := e.Search(`kernel:`, SearchOptions{CollectLines: true, Limit: limit})
			if err == nil && limit > 0 && len(res.Lines) != min(limit, res.Matches) {
				err = fmt.Errorf("%d lines for %d matches at limit %d", len(res.Lines), res.Matches, limit)
			}
			matches = res.Matches
			return err
		})
		return allocated, matches
	}

	small, smallMatches := allocFor(ds.Lines[:n], 10)
	large, largeMatches := allocFor(ds.Lines, 10)
	if largeMatches < 3*smallMatches {
		t.Fatalf("%d matches over %d lines, %d over %d: the dataset does not scale the match count", smallMatches, n, largeMatches, 4*n)
	}
	t.Logf("limit 10: %d B over %d matches, %d B over %d matches", small, smallMatches, large, largeMatches)
	if float64(large) >= 1.5*float64(small) {
		t.Errorf("a limit-10 query allocates %d B over %d lines and %d B over %d: it grows with the matches", small, n, large, 4*n)
	}

	// A huge limit copies every match, exactly like no limit, and nothing
	// more: no buffer is ever sized by the limit.
	unlimited, _ := allocFor(ds.Lines[:n/10], 0)
	huge, _ := allocFor(ds.Lines[:n/10], 1<<30)
	t.Logf("unlimited: %d B, limit 1<<30: %d B", unlimited, huge)
	if huge > 2*unlimited {
		t.Errorf("limit 1<<30 allocates %d B, an unlimited query %d B", huge, unlimited)
	}
}
