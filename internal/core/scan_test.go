package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"

	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// flipCtx is a context whose Err turns to Canceled after a fixed number
// of polls. The scan executor polls once per page (and Search once up
// front), so it cancels a scan deterministically in mid-flight.
type flipCtx struct {
	context.Context
	polls atomic.Int64
}

func cancelAfter(polls int64) *flipCtx {
	c := &flipCtx{Context: context.Background()}
	c.polls.Store(polls)
	return c
}

func (c *flipCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cachedIDs lists the pages the test cache holds, ascending.
func (c *testPageCache) cachedIDs() []storage.PageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]storage.PageID, 0, len(c.m))
	for id := range c.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (c *testPageCache) drop(id storage.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, id)
}

// TestTopLinesSelectsCanonicalPrefix offers random lines — with ties and
// empty lines — to a bounded selection and checks that it ends holding
// the canonical prefix, for limits below, at and above the line count.
func TestTopLinesSelectsCanonicalPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		lines := make([][]byte, rng.Intn(300))
		for i := range lines {
			// At most two bytes over {a, b, c}: many ties, some empty.
			lines[i] = make([]byte, rng.Intn(3))
			for j := range lines[i] {
				lines[i][j] = 'a' + byte(rng.Intn(3))
			}
		}
		limit := 1 + rng.Intn(len(lines)+2)
		sel := topLines{limit: limit}
		for _, l := range lines {
			sel.offer(l)
		}
		got := CanonicalLines(sel.lines, limit)
		want := CanonicalLines(append([][]byte(nil), lines...), limit)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d lines selected, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("trial %d: line %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
	}
}

// TestScanStrategyMatrix drives the one page-scan executor through every
// strategy × cache state and pins what all of them owe the caller:
// reference-identical answers in page order, cancellation that returns
// the context's error and nothing else, and device faults that surface,
// never enter the page cache, and leave the next query correct.
func TestScanStrategyMatrix(t *testing.T) {
	// Small enough that the index stays in memory, so the only device
	// reads a query issues are its data pages (checked below).
	ds := loggen.Generate(loggen.BGL2, 2000, 0)

	// scan is the slice of either result kind the matrix compares.
	type scan struct {
		matches, cached, candidates int
		lines                       [][]byte
	}
	tokenScan := func(q query.Query, offloaded bool) func(*Engine, context.Context) (scan, error) {
		return func(e *Engine, ctx context.Context) (scan, error) {
			res, err := e.Search(q, SearchOptions{NoIndex: true, CollectLines: true, Ctx: ctx})
			if err == nil && res.Offloaded != offloaded {
				t.Fatalf("%s: offloaded = %v, want %v", q, res.Offloaded, offloaded)
			}
			return scan{res.Matches, res.CachedPages, res.CandidatePages, res.Lines}, err
		}
	}
	regexScan := func(pattern string, prefiltered bool) func(*Engine, context.Context) (scan, error) {
		return func(e *Engine, ctx context.Context) (scan, error) {
			res, err := e.SearchRegexOpts(pattern, RegexOptions{CollectLines: true, Ctx: ctx})
			if err == nil && res.Prefiltered != prefiltered {
				t.Fatalf("%s: prefiltered = %v, want %v", pattern, res.Prefiltered, prefiltered)
			}
			return scan{res.Matches, res.CachedPages, res.CandidatePages, res.Lines}, err
		}
	}
	tokenWant := func(q query.Query) func([]byte) bool {
		return func(l []byte) bool { return q.Match(string(l)) }
	}
	// Nine intersection sets: one more than the cuckoo tables hold.
	nineSets := query.MustParse(`FATAL OR ERROR OR WARNING OR SEVERE OR parity OR torus OR receiver OR ciod: OR cache`)
	strategies := []struct {
		name      string
		run       func(*Engine, context.Context) (scan, error)
		want      func(line []byte) bool
		usesCache bool
	}{
		{"accelerated", tokenScan(query.MustParse(`FATAL`), true), tokenWant(query.MustParse(`FATAL`)), true},
		{"software", tokenScan(nineSets, false), tokenWant(nineSets), false},
		{"regex prefiltered", regexScan(` FATAL `, true), regexp.MustCompile(` FATAL `).Match, true},
		{"regex full scan", regexScan(`FATAL`, false), regexp.MustCompile(`FATAL`).Match, true},
	}

	for _, st := range strategies {
		var want [][]byte
		for _, l := range ds.Lines {
			if st.want(l) {
				want = append(want, l)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s matches nothing; the row would be vacuous", st.name)
		}
		for _, state := range []string{"no cache", "cold cache", "warm cache"} {
			t.Run(st.name+"/"+state, func(t *testing.T) {
				cfg := Config{}
				cache := newTestPageCache()
				if state != "no cache" {
					cfg.PageCache = cache
				}
				e := NewEngine(cfg)
				if err := e.Ingest(ds.Lines); err != nil {
					t.Fatal(err)
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				// prepare puts the cache into the state under test.
				prepare := func() {
					cache.InvalidateAll()
					if state == "warm cache" {
						if _, err := st.run(e, nil); err != nil {
							t.Fatalf("warm-up: %v", err)
						}
					}
				}
				// answer runs the query un-faulted and checks it against
				// the reference, in ingest (= page) order.
				answer := func(when string) scan {
					t.Helper()
					got, err := st.run(e, context.Background())
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					if got.matches != len(want) || len(got.lines) != len(want) {
						t.Fatalf("%s: %d matches (%d lines), want %d", when, got.matches, len(got.lines), len(want))
					}
					for i := range want {
						if string(got.lines[i]) != string(want[i]) {
							t.Fatalf("%s: line %d = %q, want %q", when, i, got.lines[i], want[i])
						}
					}
					return got
				}
				cancelled := func(when string, ctx context.Context) {
					t.Helper()
					got, err := st.run(e, ctx)
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: err = %v, want context.Canceled", when, err)
					}
					if got.matches != 0 || got.lines != nil {
						t.Fatalf("%s: partial result alongside the error: %d matches, %d lines", when, got.matches, len(got.lines))
					}
				}

				// (a) The answer, and where it came from.
				prepare()
				before := e.Device().Stats()
				got := answer("answer")
				wantCached := 0
				if state == "warm cache" && st.usesCache {
					wantCached = got.candidates
				}
				if got.cached != wantCached {
					t.Fatalf("%d of %d pages served from the cache, want %d", got.cached, got.candidates, wantCached)
				}
				after := e.Device().Stats()
				reads := (after.Internal.Reads + after.External.Reads) - (before.Internal.Reads + before.External.Reads)
				if reads != uint64(got.candidates-got.cached) {
					t.Fatalf("%d device reads for %d uncached candidate pages: the index is no longer memory-resident and the fault cases below would miss the data pages",
						reads, got.candidates-got.cached)
				}
				if !st.usesCache && len(cache.cachedIDs()) != 0 {
					t.Fatal("the host fallback populated the device-side page cache")
				}

				// (b) Cancelled before the scan, and between two pages.
				const midScan = 4
				if got.candidates <= midScan {
					t.Fatalf("only %d candidate pages; a mid-scan cancellation needs more than %d", got.candidates, midScan)
				}
				prepare()
				dead, cancel := context.WithCancel(context.Background())
				cancel()
				cancelled("cancelled before", dead)
				prepare()
				cancelled("cancelled during", cancelAfter(midScan))
				answer("after a cancelled scan")

				// (c) A device fault. With a warm cache, punch a hole at
				// page k first so the faulted read is exactly page k.
				prepare()
				var k storage.PageID
				holed := state == "warm cache" && st.usesCache
				if holed {
					ids := cache.cachedIDs()
					k = ids[len(ids)/2]
					cache.drop(k)
				}
				e.Device().FailNextReads(1, errECC)
				if res, err := st.run(e, context.Background()); !errors.Is(err, errECC) {
					t.Fatalf("fault not surfaced: err = %v", err)
				} else if res.matches != 0 || res.lines != nil {
					t.Fatalf("partial result alongside the fault: %d matches", res.matches)
				}
				if holed {
					if _, ok := cache.Get(k); ok {
						t.Fatalf("faulted page %d entered the cache", k)
					}
				} else if n := len(cache.cachedIDs()); n >= got.candidates {
					t.Fatalf("cache holds %d pages after a faulted scan of %d: the faulted page must be missing", n, got.candidates)
				}
				answer("after the fault")
				if holed {
					if _, ok := cache.Get(k); !ok {
						t.Fatalf("page %d not cached by the un-faulted rescan", k)
					}
				}
			})
		}
	}
}
