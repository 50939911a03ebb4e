package mithrilog

import (
	"fmt"
	"time"

	"mithrilog/internal/query"
)

// BatchResult reports a multi-query batch execution.
type BatchResult struct {
	// Matches holds, per input query in order, its match count.
	Matches []int
	// Passes is the number of full-data scans used: the queries'
	// intersection sets pack into accelerator configurations of up to the
	// hardware capacity (8 sets in the prototype), exactly §4's
	// "evaluating multiple queries in parallel by joining them with
	// unions".
	Passes int
	// SimElapsed is the simulated total time; WallElapsed the host time.
	SimElapsed, WallElapsed time.Duration
}

// SearchBatch evaluates many queries concurrently, sharing accelerator
// scans: queries are packed into hardware configurations by intersection-
// set count and demultiplexed per line with the filter's per-set match
// masks, so N queries cost ceil(totalSets/capacity) scans instead of N.
func (e *Engine) SearchBatch(queries []Query) (BatchResult, error) {
	var res BatchResult
	if len(queries) == 0 {
		return res, fmt.Errorf("mithrilog: empty batch")
	}
	start := time.Now()
	// Flatten every query's sets into single-set pseudo-templates tagged
	// with their owning query.
	var sets []query.Query
	owner := make([]int, 0)
	for qi, q := range queries {
		if err := q.q.Validate(); err != nil {
			return res, fmt.Errorf("mithrilog: batch query %d: %w", qi, err)
		}
		for _, s := range q.q.Sets {
			sets = append(sets, query.New(s))
			owner = append(owner, qi)
		}
	}
	tag, err := e.router.Tag(sets, true)
	if err != nil {
		return res, err
	}
	res.Matches = make([]int, len(queries))
	// A line matches query qi when it satisfied ANY of qi's sets; count
	// per line with dedup across the query's sets.
	seen := make([]bool, len(queries))
	for _, lineTags := range tag.Tags {
		for _, setID := range lineTags {
			qi := owner[setID]
			if !seen[qi] {
				seen[qi] = true
				res.Matches[qi]++
			}
		}
		for _, setID := range lineTags {
			seen[owner[setID]] = false
		}
	}
	res.Passes = tag.Passes
	res.SimElapsed = tag.SimElapsed
	res.WallElapsed = time.Since(start)
	return res, nil
}
