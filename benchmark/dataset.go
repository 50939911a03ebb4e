package main

import (
	"fmt"
	"regexp"
	"time"

	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
)

// scanExprs is the token-query suite of the scan workloads, by category:
// single token (frequent and moderately frequent), selective AND, OR, a
// union of intersections, and two negation shapes. Every one compiles into
// the cuckoo tables, so all take the accelerated path; their costs differ
// only through match count, which is the paper's flat-throughput claim.
var scanExprs = []string{
	`kernel:`,
	`pbs_mom:`,
	`session AND opened`,
	`failed AND read AND prefix`,
	`NFS OR lustre`,
	`(parity AND corrected) OR (TLB AND interrupt)`,
	`error AND NOT kernel:`,
	`session AND NOT opened AND NOT crond`,
}

// The regex suite: three patterns whose literal factors are bounded by
// delimiters, so the planner prunes pages through the index, and one whose
// only literal has an open right edge, which leaves no required token and
// forces the full decompress-and-match scan.
var (
	regexPrefiltered = []string{
		` connection refused from `,
		` (lustre recovery|NFS server not) `,
		` ECC error at address 0x[0-9a-f]+`,
	}
	regexFallback = `core\.[0-9]+`
)

// generate makes the dataset a run works on. The program under test only
// ever sees these lines; the seed is the benchmark's --seed.
func generate(lines int, seed int64) (*loggen.Dataset, time.Duration) {
	start := time.Now()
	// Seed 0 would select the profile's default seed, aliasing two seeds.
	ds := loggen.Generate(loggen.Liberty2, lines, seed*2+1)
	return ds, time.Since(start)
}

func rawBytes(lines [][]byte) int {
	n := 0
	for _, l := range lines {
		n += len(l) + 1
	}
	return n
}

// tokenOracle counts, per expression, the lines the reference matcher
// (internal/query, the semantics the filter engine is property-tested
// against) accepts. The expressions are united into one query so each line
// is tokenized once; MatchSet then reports every intersection set's verdict
// and an expression matches when any of its own sets does.
func tokenOracle(exprs []string, lines [][]byte) ([]int, error) {
	var sets []query.Intersection
	var owner []int
	for i, expr := range exprs {
		q, err := query.Parse(expr)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", expr, err)
		}
		if q.UsesColumns() {
			return nil, fmt.Errorf("oracle: %q: column constraints are not in the suite", expr)
		}
		for _, s := range q.Sets {
			sets = append(sets, s)
			owner = append(owner, i)
		}
	}
	union := query.New(sets...)
	counts := make([]int, len(exprs))
	hit := make([]bool, len(exprs))
	for _, line := range lines {
		for i := range hit {
			hit[i] = false
		}
		for si, ok := range union.MatchSet(string(line)) {
			if ok {
				hit[owner[si]] = true
			}
		}
		for i, h := range hit {
			if h {
				counts[i]++
			}
		}
	}
	return counts, nil
}

// regexOracle counts matching lines per pattern with Go's regexp, an
// implementation that shares no code with internal/rex.
func regexOracle(patterns []string, lines [][]byte) ([]int, error) {
	res := make([]*regexp.Regexp, len(patterns))
	for i, p := range patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", p, err)
		}
		res[i] = re
	}
	counts := make([]int, len(patterns))
	for _, line := range lines {
		for i, re := range res {
			if re.Match(line) {
				counts[i]++
			}
		}
	}
	return counts, nil
}

// prefixBound is the oracle for a query racing a single writer: base is the
// count over the data present before the run and cum[k] the count over the
// first k ingested batches. A query that began after `acked` batches were
// acknowledged and ended when `sent` had been started must see every acked
// line (a search flushes buffered lines first) and may see any sent one.
type prefixBound struct {
	base int
	cum  []int // cum[0] == 0
}

func newPrefixBound(base int, perBatch []int) prefixBound {
	cum := make([]int, len(perBatch)+1)
	for i, c := range perBatch {
		cum[i+1] = cum[i] + c
	}
	return prefixBound{base: base, cum: cum}
}

// bounds returns the inclusive [lo, hi] a correct count falls in.
func (p prefixBound) bounds(acked, sent int) (lo, hi int) {
	return p.base + p.cum[acked], p.base + p.cum[sent]
}
