// Package bench is the experiment harness: one function per table and
// figure of the paper's evaluation (§7), each returning typed rows that
// cmd/experiments formats and EXPERIMENTS.md records. The harness builds,
// per dataset, the MithriLog engine and both software baselines over the
// same synthetic data, generates the FT-tree query library exactly as
// §7.1 describes (all single-template queries plus random 2- and 8-query
// OR-combinations), and measures or simulates each system's metric.
package bench

import (
	"math/rand"

	"mithrilog/internal/baseline/softscan"
	"mithrilog/internal/baseline/splunksim"
	"mithrilog/internal/core"
	"mithrilog/internal/ftree"
	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// Options scale the harness. The zero value selects a quick configuration
// suitable for CI; cmd/experiments raises the sizes.
type Options struct {
	// Lines per dataset (0 = quick default: 4000 for BGL2, 20000 others).
	Lines int
	// Singles caps the number of single-template queries evaluated per
	// dataset (0 = 25).
	Singles int
	// Pairs is the number of random 2-query OR combinations (0 = 20;
	// the paper uses 100).
	Pairs int
	// Octets is the number of random 8-query OR combinations (0 = 8;
	// the paper uses 16).
	Octets int
	// Seed drives batch sampling (0 = 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Singles <= 0 {
		o.Singles = 25
	}
	if o.Pairs <= 0 {
		o.Pairs = 20
	}
	if o.Octets <= 0 {
		o.Octets = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) linesFor(p loggen.Profile) int {
	if o.Lines > 0 {
		if p.Name == "BGL2" {
			// Keep Table 1's ~1:5 proportion for the small dataset.
			return o.Lines / 5
		}
		return o.Lines
	}
	if p.Name == "BGL2" {
		return 4000
	}
	return 20000
}

// Workload bundles one dataset with every system under test and its
// machine-generated query library.
type Workload struct {
	Profile loggen.Profile
	Dataset *loggen.Dataset

	MithriLog *core.Engine
	SoftScan  *softscan.Engine
	Splunk    *splunksim.Engine

	Library *ftree.Library
	// Singles are the single-template queries (§7.1), capped at
	// Options.Singles.
	Singles []query.Query
	// Pairs and Octets are the random OR-combinations of §7.1.
	Pairs  []query.Query
	Octets []query.Query
}

// RawBytes is the dataset's uncompressed size.
func (w *Workload) RawBytes() uint64 { return uint64(w.Dataset.SizeBytes()) }

// AllQueries returns singles, pairs, and octets concatenated.
func (w *Workload) AllQueries() []query.Query {
	out := make([]query.Query, 0, len(w.Singles)+len(w.Pairs)+len(w.Octets))
	out = append(out, w.Singles...)
	out = append(out, w.Pairs...)
	out = append(out, w.Octets...)
	return out
}

// BuildWorkload constructs every system over one dataset.
func BuildWorkload(p loggen.Profile, opts Options) (*Workload, error) {
	opts = opts.withDefaults()
	ds := loggen.Generate(p, opts.linesFor(p), 0)
	w := &Workload{Profile: p, Dataset: ds}

	eng := core.NewEngine(core.Config{})
	if err := eng.Ingest(ds.Lines); err != nil {
		return nil, err
	}
	if err := eng.Flush(); err != nil {
		return nil, err
	}
	// The experiments model an index that lives entirely on flash, so its
	// partial nodes are written once, where ingest ends.
	if err := eng.Index().Flush(); err != nil {
		return nil, err
	}
	w.MithriLog = eng

	ss, err := softscan.Build(storage.New(storage.Config{}), ds.Lines)
	if err != nil {
		return nil, err
	}
	w.SoftScan = ss

	sp, err := splunksim.Build(storage.New(storage.Config{}), ds.Lines)
	if err != nil {
		return nil, err
	}
	w.Splunk = sp

	w.Library = ftree.Extract(ds.Lines, ftree.Params{MaxChildren: 40, MinSupport: 5, MaxDepth: 12})
	w.buildQueries(opts)
	return w, nil
}

// buildQueries compiles the template library into the §7.1 workload:
// every single-template query (capped), then random 2- and 8-combos.
func (w *Workload) buildQueries(opts Options) {
	all := w.Library.Queries()
	// Keep only offloadable single queries (they all are, with 1 set).
	singles := all
	if len(singles) > opts.Singles {
		singles = singles[:opts.Singles]
	}
	w.Singles = singles
	rng := rand.New(rand.NewSource(opts.Seed))
	pick := func() query.Query { return all[rng.Intn(len(all))] }
	for i := 0; i < opts.Pairs && len(all) >= 2; i++ {
		w.Pairs = append(w.Pairs, pick().Or(pick()))
	}
	for i := 0; i < opts.Octets && len(all) >= 8; i++ {
		q := pick()
		for j := 0; j < 7; j++ {
			q = q.Or(pick())
		}
		w.Octets = append(w.Octets, q)
	}
}

// mustParse parses a known-good query expression.
func mustParse(expr string) query.Query {
	return query.MustParse(expr)
}

// BuildAll constructs workloads for the four datasets.
func BuildAll(opts Options) ([]*Workload, error) {
	var out []*Workload
	for _, p := range loggen.Profiles() {
		w, err := BuildWorkload(p, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
