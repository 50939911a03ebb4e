package mithrilog

import (
	"time"

	"mithrilog/internal/query"
)

// TagResult reports a template-tagging run over the whole store — the
// paper's §8 "tagging each log line with template IDs" extension.
type TagResult struct {
	// Tags holds, per ingested line in order, the template IDs the line
	// matched (nil for untagged lines); populated when collect was set.
	Tags [][]int
	// Counts maps template ID to the number of lines carrying it.
	Counts map[int]uint64
	// MultiTagged and Untagged count lines with >1 and 0 templates.
	MultiTagged, Untagged uint64
	// Lines is the total number of lines scanned.
	Lines uint64
	// Passes is the number of full-data scans (the template library is
	// processed in groups of the accelerator's intersection-set capacity).
	Passes int
	// SimElapsed is the simulated tagging time on the modeled platform.
	SimElapsed time.Duration
	// WallElapsed is the host wall-clock time of the simulation.
	WallElapsed time.Duration
}

// Tag classifies every ingested line against the template library at the
// accelerator's wire speed. Each template's query occupies one
// intersection set; libraries larger than the per-pass capacity (8 sets
// in the prototype) take multiple passes over the data. Set collect to
// materialize per-line template IDs in the result.
func (e *Engine) Tag(lib *TemplateLibrary, collect bool) (TagResult, error) {
	if e.router.NumShards() > 1 {
		return TagResult{}, ErrSharded
	}
	qs := make([]query.Query, 0, lib.lib.Len())
	for i := 0; i < lib.lib.Len(); i++ {
		q, err := lib.lib.Query(i)
		if err != nil {
			return TagResult{}, err
		}
		qs = append(qs, q)
	}
	tagger, err := e.router.Shard(0).NewTagger(qs)
	if err != nil {
		return TagResult{}, err
	}
	res, err := tagger.Run(collect)
	if err != nil {
		return TagResult{}, err
	}
	return TagResult{
		Tags:        res.Tags,
		Counts:      res.Counts,
		MultiTagged: res.MultiTagged,
		Untagged:    res.Untagged,
		Lines:       res.Lines,
		Passes:      res.Passes,
		SimElapsed:  res.SimElapsed,
		WallElapsed: res.WallElapsed,
	}, nil
}
