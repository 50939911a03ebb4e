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
// scans: the queries' sets are packed into hardware configurations, and a
// line counts toward a query when any of its sets' match-mask bits is
// set, so N queries cost ceil(totalSets/capacity) scans instead of N.
func (e *Engine) SearchBatch(queries []Query) (BatchResult, error) {
	var res BatchResult
	if len(queries) == 0 {
		return res, fmt.Errorf("mithrilog: empty batch")
	}
	start := time.Now()
	qs := make([]query.Query, len(queries))
	for qi, q := range queries {
		if err := q.q.Validate(); err != nil {
			return res, fmt.Errorf("mithrilog: batch query %d: %w", qi, err)
		}
		qs[qi] = q.q
	}
	tag, err := e.router.Tag(qs, false)
	if err != nil {
		return res, err
	}
	res.Matches = make([]int, len(queries))
	for qi := range res.Matches {
		res.Matches[qi] = int(tag.Counts[qi])
	}
	res.Passes = tag.Passes
	res.SimElapsed = tag.SimElapsed
	res.WallElapsed = time.Since(start)
	return res, nil
}
