package mithrilog

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mithrilog/internal/query"
)

// This file is the concurrent visibility oracle: one writer sends tenant
// and untenanted batches, flushing after some of them, while readers run
// token, regex and limited searches. Whatever the engine does between an
// ingest and a search (seal a page, flush the index, drop cached pages),
// each answer's count must lie between the matches among the lines
// acknowledged before the search began and the matches among the lines
// sent before it ended. It is the benchmark fleet oracle's rule as a test.

// visBatches is the writer's program: batch 0 is the base, ingested and
// flushed before any reader starts; after it, odd batches belong to tenant
// acme and even ones are untenanted.
const (
	visBatches   = 24
	visBatchSize = 64
	visTenant    = "acme"
	visLimit     = 5
)

// visBatch is batch b's lines. The base holds one 64-line run per shard
// of a four-shard fleet, so no shard is empty when readers start.
func visBatch(b int) (tenant string, lines []string) {
	if b == 0 {
		return "", seqLines("svc", 4*visBatchSize, 0)
	}
	if b%2 == 1 {
		return visTenant, seqLines(visTenant, visBatchSize, b)
	}
	return "", seqLines("svc", visBatchSize, b)
}

// visSearch is one reader operation: a token query or a regex, scattered
// or routed to the tenant, limited or not.
type visSearch struct {
	expr   string
	regex  bool
	tenant string
	limit  int
	match  func(string) bool
}

func (s visSearch) String() string {
	return fmt.Sprintf("%q regex=%v tenant=%q limit=%d", s.expr, s.regex, s.tenant, s.limit)
}

// run executes the search and returns its count and its lines.
func (s visSearch) run(eng *Engine) (int, []string, error) {
	if s.regex {
		res, err := eng.SearchRegexOpts(context.Background(), s.tenant, s.expr,
			RegexOptions{CollectLines: s.limit > 0, Limit: s.limit})
		return res.Matches, res.Lines, err
	}
	res, err := eng.Search(s.expr, SearchOptions{CollectLines: s.limit > 0, Limit: s.limit, Tenant: s.tenant})
	return res.Matches, res.Lines, err
}

func visSearches() []visSearch {
	var out []visSearch
	for _, expr := range []string{"failed", "error OR retry", "node03 AND NOT failed"} {
		q := query.MustParse(expr)
		for _, o := range []struct {
			tenant string
			limit  int
		}{{"", 0}, {"", visLimit}, {visTenant, 0}} {
			out = append(out, visSearch{expr: expr, tenant: o.tenant, limit: o.limit, match: q.Match})
		}
	}
	for _, p := range []string{`failed code=[0-9]`, `job=1[0-9]* (done|retry)`} {
		re := regexp.MustCompile(p)
		for _, limit := range []int{0, visLimit} {
			out = append(out, visSearch{expr: p, regex: true, limit: limit, match: re.MatchString})
		}
	}
	return out
}

// visCounts returns, for every prefix of k batches, how many of its lines
// match, and how many of its tenant lines match.
func visCounts(match func(string) bool) (all, tenant []int) {
	all, tenant = make([]int, visBatches+1), make([]int, visBatches+1)
	for b := 0; b < visBatches; b++ {
		owner, lines := visBatch(b)
		all[b+1], tenant[b+1] = all[b], tenant[b]
		for _, l := range lines {
			if match(l) {
				all[b+1]++
				if owner == visTenant {
					tenant[b+1]++
				}
			}
		}
	}
	return all, tenant
}

// TestConcurrentVisibility runs the oracle at widths 1 and 4, with the
// page cache on, under two concurrent readers.
func TestConcurrentVisibility(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkConcurrentVisibility(t, Config{Shards: shards, CacheBytes: 8 << 20})
		})
	}
}

func checkConcurrentVisibility(t *testing.T, cfg Config) {
	eng := Open(cfg)
	defer eng.Close()
	ingest := func(b int) error {
		owner, lines := visBatch(b)
		bs := make([][]byte, len(lines))
		for i, l := range lines {
			bs[i] = []byte(l)
		}
		return eng.IngestTenant(owner, bs)
	}
	if err := ingest(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	searches := visSearches()
	type bounds struct{ all, tenant []int }
	want := make([]bounds, len(searches))
	for i, s := range searches {
		want[i].all, want[i].tenant = visCounts(s.match)
	}
	// check judges one answer given acked batches acknowledged before the
	// search began and sent batches started before it ended.
	check := func(i int, matches int, lines []string, acked, sent int) error {
		s := searches[i]
		lo, hi := want[i].all[acked], want[i].all[sent]
		if s.tenant != "" && cfg.Shards > 1 {
			// Tenancy is placement: the home shard also holds its
			// stripes of the untenanted batches, so only the tenant's own
			// acknowledged lines are certain to be counted.
			lo = want[i].tenant[acked]
		}
		if matches < lo || matches > hi {
			return fmt.Errorf("%s: %d matches, oracle admits %d..%d (batches acked %d, sent %d)", s, matches, lo, hi, acked, sent)
		}
		if s.limit == 0 {
			return nil
		}
		if n := min(matches, s.limit); len(lines) != n {
			return fmt.Errorf("%s: %d lines for %d matches", s, len(lines), matches)
		}
		if !sort.StringsAreSorted(lines) {
			return fmt.Errorf("%s: limited lines not in canonical order: %q", s, lines)
		}
		for _, l := range lines {
			if !s.match(l) {
				return fmt.Errorf("%s: returned non-matching line %q", s, l)
			}
		}
		return nil
	}

	// acked counts batches whose ingest returned, sent batches whose
	// ingest began. progress lets the writer send its next batch only
	// after some reader finished a search, so reads interleave with
	// every stretch of the program.
	var acked, sent atomic.Int64
	acked.Store(1)
	sent.Store(1)
	progress := make(chan struct{}, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for op := r; ; op++ {
				select {
				case <-done:
					return
				default:
				}
				i := op % len(searches)
				a := int(acked.Load())
				matches, lines, err := searches[i].run(eng)
				s := int(sent.Load())
				if err == nil {
					err = check(i, matches, lines, a, s)
				}
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}(r)
	}

	readersGone := make(chan struct{}) // both readers stopped on an error
	go func() { wg.Wait(); close(readersGone) }()
	var werr error
	for b := 1; b < visBatches && werr == nil; b++ {
		select {
		case <-progress:
		case <-readersGone:
		}
		if t.Failed() {
			break
		}
		sent.Store(int64(b + 1))
		if werr = ingest(b); werr != nil {
			break
		}
		acked.Store(int64(b + 1))
		if b%3 == 0 {
			werr = eng.Flush()
		}
	}
	close(done)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if t.Failed() {
		return
	}
	// Quiescent: every batch is acknowledged, so every count is exact.
	for i, s := range searches {
		matches, lines, err := s.run(eng)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := check(i, matches, lines, visBatches, visBatches); err != nil {
			t.Error(err)
		}
	}
}
