package core

import (
	"fmt"
	"math/bits"
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
// A query of several sets (NewQueryTagger) takes one mask bit per set,
// and a line carries it when any of those bits is set.
type Tagger struct {
	engine *Engine
	// groups are the compiled per-pass query batches.
	groups []query.Query
	// members lists, per group, the templates with sets in it.
	members [][]member
	// templates is the library size.
	templates int
}

// member is one template's share of a pass: the set-mask bits its sets
// occupy. A split template's sets span more than one pass, so a line may
// fire it in several and must be counted once.
type member struct {
	tid   int
	bits  filter.SetMask
	split bool
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
	for tid, q := range templateQueries {
		if len(q.Sets) > 1 {
			return nil, fmt.Errorf("core: template %d: tagger requires single-intersection template queries, got %d sets", tid, len(q.Sets))
		}
	}
	return e.NewQueryTagger(templateQueries)
}

// NewQueryTagger is NewTagger for queries of any width: a line carries
// query i when any of its intersection sets fires. Sets pack into passes
// in order, capacity sets per pass, so a query's sets may span passes.
func (e *Engine) NewQueryTagger(queries []query.Query) (*Tagger, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: tagger needs at least one template query")
	}
	capacity := e.cfg.Pipeline.Table.SetCount()
	t := &Tagger{engine: e, templates: len(queries)}
	for tid, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("core: template %d: %w", tid, err)
		}
		first := -1
		for _, set := range q.Sets {
			g := len(t.groups) - 1
			if g < 0 || len(t.groups[g].Sets) == capacity {
				t.groups = append(t.groups, query.Query{})
				t.members = append(t.members, nil)
				g++
			}
			ms := t.members[g]
			if len(ms) == 0 || ms[len(ms)-1].tid != tid {
				ms = append(ms, member{tid: tid})
			}
			ms[len(ms)-1].bits |= 1 << len(t.groups[g].Sets)
			t.members[g] = ms
			t.groups[g].Sets = append(t.groups[g].Sets, set)
			if first < 0 {
				first = g
			}
		}
		// The query is the last member of every group its sets reached.
		if last := len(t.groups) - 1; first < last {
			for g := first; g <= last; g++ {
				t.members[g][len(t.members[g])-1].split = true
			}
		}
	}
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
	// once and twice hold one bit per line, set on the line's first and
	// second template (line numbers are stable across passes: pages are
	// visited in order).
	words := (int(e.lineCount) + 63) / 64
	once, twice := make([]uint64, words), make([]uint64, words)
	var tags [][]int
	// fired[tid] holds, for a split template, one bit per line it has
	// already been counted on.
	fired := make([][]uint64, t.templates)
	var simTotal time.Duration
	masks := make([]filter.SetMask, 0, 4096)
	pages, stream := e.dataPages, e.dev.TransferTime(storage.Internal, e.compBytes)
	if err := e.withScanState(func(scan *scanState) error {
		for gi, group := range t.groups {
			pipe := scan.pipes[0]
			if err := pipe.Configure(group); err != nil {
				return fmt.Errorf("core: tagging pass %d: %w", gi, err)
			}
			lineNo := 0
			// One pass of the scan datapath with the per-set match masks in
			// the evaluator's place.
			tagPage := func(_ int, text []byte, _ *filter.TokenizedBlock) (_, _ [][]byte, err error) {
				if masks, err = pipe.TagBlock(masks[:0], text); err != nil {
					return nil, nil, err
				}
				for _, mask := range masks {
					if gi == 0 && collectTags {
						tags = append(tags, nil)
					}
					if mask != 0 {
						for _, m := range t.members[gi] {
							if mask&m.bits == 0 || (m.split && testAndSet(&fired[m.tid], lineNo)) {
								continue
							}
							res.Counts[m.tid]++
							if testAndSet(&once, lineNo) {
								testAndSet(&twice, lineNo)
							}
							if collectTags {
								tags[lineNo] = append(tags[lineNo], m.tid)
							}
						}
					}
					lineNo++
				}
				return nil, nil, nil
			}
			if _, err := e.scanPages(nil, scan, pages, false, 0, scanStrategy{link: storage.Internal, workers: 1, eval: tagPage}); err != nil {
				return err
			}
			if gi == 0 {
				res.Lines = uint64(lineNo)
			}
			// Simulated pass time: stream all compressed pages at internal
			// bandwidth, bounded below by the pipelines' cycle time (the one
			// functional pipeline's work divides across the hardware's four).
			st := pipe.Stats()
			perPipeCycles := st.Cycles / uint64(len(scan.pipes))
			simTotal += max(hwsim.CyclesToDuration(perPipeCycles, e.cfg.System.ClockHz), stream)
		}
		return nil
	}); err != nil {
		return res, err
	}
	res.Untagged = res.Lines - popCount(once)
	res.MultiTagged = popCount(twice)
	if collectTags {
		res.Tags = tags
	}
	res.SimElapsed = simTotal
	res.WallElapsed = time.Since(start)
	return res, nil
}

// testAndSet sets bit i of *bits, growing it as needed, and reports
// whether the bit was already set.
func testAndSet(bits *[]uint64, i int) bool {
	for len(*bits) <= i/64 {
		*bits = append(*bits, 0)
	}
	w, b := &(*bits)[i/64], uint64(1)<<(i%64)
	was := *w&b != 0
	*w |= b
	return was
}

// popCount counts the set bits of set.
func popCount(set []uint64) uint64 {
	var n int
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}
