package core

import (
	"fmt"
	"time"

	"mithrilog/internal/filter"
	"mithrilog/internal/hwsim"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// Tagger implements the paper's §8 extension: tagging every log line with
// the template(s) it belongs to, at wire speed. Each intersection set of
// an accelerator configuration encodes one template query, so the hash
// filter's per-set match mask directly yields template membership at no
// extra datapath cost. A library larger than the accelerator's flag-pair
// capacity is handled with multiple passes over the data, each pass
// carrying up to the §4.3 "querying up to N templates at once" capacity.
type Tagger struct {
	engine *Engine
	// groups are the compiled per-pass query batches.
	groups []query.Query
	// ids maps (group, set index) to the caller's template ID.
	ids [][]int
}

// TagResult reports one tagging run.
type TagResult struct {
	// Tags holds, per ingested line in order, the IDs of the templates
	// the line matched (nil for untagged lines). Populated only when
	// CollectTags was set.
	Tags [][]int
	// Counts maps template ID to the number of lines tagged with it.
	Counts map[int]uint64
	// MultiTagged counts lines matching more than one template.
	MultiTagged uint64
	// Untagged counts lines matching no template.
	Untagged uint64
	// Lines is the total number of lines scanned.
	Lines uint64
	// Passes is the number of full scans required (ceil(T / capacity)).
	Passes int
	// SimElapsed is the simulated time: each pass streams every data page
	// through the pipelines once.
	SimElapsed time.Duration
	// WallElapsed is the host wall-clock time of the simulation.
	WallElapsed time.Duration
}

// NewTagger compiles a template library (one single-intersection query per
// template, indexed by position) into pass groups sized to the pipeline's
// intersection-set capacity.
func (e *Engine) NewTagger(templateQueries []query.Query) (*Tagger, error) {
	if len(templateQueries) == 0 {
		return nil, fmt.Errorf("core: tagger needs at least one template query")
	}
	capacity := e.cfg.Pipeline.Table.Sets
	if capacity <= 0 {
		capacity = 8
	}
	t := &Tagger{engine: e}
	var group query.Query
	var ids []int
	flush := func() {
		if len(group.Sets) > 0 {
			t.groups = append(t.groups, group)
			t.ids = append(t.ids, ids)
			group = query.Query{}
			ids = nil
		}
	}
	for tid, q := range templateQueries {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("core: template %d: %w", tid, err)
		}
		if len(q.Sets) != 1 {
			return nil, fmt.Errorf("core: template %d: tagger requires single-intersection template queries, got %d sets", tid, len(q.Sets))
		}
		if len(group.Sets) == capacity {
			flush()
		}
		group.Sets = append(group.Sets, q.Sets[0])
		ids = append(ids, tid)
	}
	flush()
	return t, nil
}

// Passes returns the number of full-data scans a Run will take.
func (t *Tagger) Passes() int { return len(t.groups) }

// Run tags every ingested line. Each pass reconfigures the pipelines with
// the next template group and streams all data pages through them; the
// per-line set masks from the filter are merged across passes.
func (t *Tagger) Run(collectTags bool) (TagResult, error) {
	start := time.Now()
	e := t.engine
	res := TagResult{Counts: make(map[int]uint64), Passes: len(t.groups)}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.dataPages) == 0 && len(e.pending) == 0 {
		return res, ErrNothingIngested
	}
	if err := e.sealLocked(); err != nil {
		return res, err
	}
	// matchedPerLine[i] counts templates matched by line i (line numbers
	// are stable across passes: pages are visited in order).
	var matchedPerLine []int
	var tags [][]int
	var simTotal time.Duration
	masks := make([]filter.SetMask, 0, 4096)
	scan := e.getScanState()
	defer e.putScanState(scan)
	for gi, group := range t.groups {
		pipe := scan.pipes[0]
		if err := pipe.Configure(group); err != nil {
			return res, fmt.Errorf("core: tagging pass %d: %w", gi, err)
		}
		lineNo := 0
		// One pass of the scan datapath with the per-set match masks in
		// the evaluator's place.
		tagPage := func(_ int, text []byte, _ *filter.TokenizedBlock) (_, _ [][]byte, err error) {
			if masks, err = pipe.TagBlock(masks[:0], text); err != nil {
				return nil, nil, err
			}
			for _, mask := range masks {
				if gi == 0 {
					matchedPerLine = append(matchedPerLine, 0)
					if collectTags {
						tags = append(tags, nil)
					}
				}
				if mask != 0 {
					for si := 0; si < len(group.Sets); si++ {
						if mask.Has(si) {
							tid := t.ids[gi][si]
							res.Counts[tid]++
							matchedPerLine[lineNo]++
							if collectTags {
								tags[lineNo] = append(tags[lineNo], tid)
							}
						}
					}
				}
				lineNo++
			}
			return nil, nil, nil
		}
		if _, err := e.scanPages(nil, scan, e.dataPages, false, 0, scanStrategy{link: storage.Internal, workers: 1, eval: tagPage}); err != nil {
			return res, err
		}
		// Simulated pass time: stream all compressed pages at internal
		// bandwidth, bounded below by the pipelines' cycle time (the one
		// functional pipeline's work divides across the hardware's four).
		st := pipe.Stats()
		perPipeCycles := st.Cycles / uint64(len(scan.pipes))
		filterTime := hwsim.CyclesToDuration(perPipeCycles, e.cfg.System.ClockHz)
		stream := e.dev.TransferTime(storage.Internal, e.compBytes)
		if filterTime > stream {
			simTotal += filterTime
		} else {
			simTotal += stream
		}
	}
	res.Lines = uint64(len(matchedPerLine))
	for _, n := range matchedPerLine {
		switch {
		case n == 0:
			res.Untagged++
		case n > 1:
			res.MultiTagged++
		}
	}
	if collectTags {
		res.Tags = tags
	}
	res.SimElapsed = simTotal
	res.WallElapsed = time.Since(start)
	return res, nil
}
