package main

import (
	"fmt"
	"math"
	"time"

	"mithrilog"
	"mithrilog/internal/loggen"
)

// params are the driver's arguments.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	// outDir receives trace_<workload>.json.
	outDir string
}

// workload is one set of inputs the benchmark runs. Op counts are fixed per
// (workload, --seconds), never stopped by a clock: segsPerSecond is
// calibrated on the reference box (one P) so the timed part lasts about
// --seconds there, and the same work is done on every run and every commit.
type workload struct {
	name string
	why  string
	// lines is the dataset size; every one is beyond the reference box's
	// 4 MiB L2, as raw text and, for the scans, as compressed pages too.
	lines int
	// segOps is the ops per client in one segment: whole passes over the
	// request list, so segments are alike. Segments are short (0.1-0.6 s)
	// and many, because the box's neighbours disturb it for seconds at a
	// time and the metrics are taken over the quieter half of the segments.
	segOps        int
	traceSegOps   int // the same in a traced run
	segsPerSecond float64
	// minSegments keeps a run at 200 ops or more whatever --seconds says,
	// so its quieter half has 100 and ten samples beyond p90.
	minSegments int
	clients     int

	// measure performs set-up and the timed run; layers performs a traced
	// run. Both are given the generated dataset.
	measure func(rc *runCtx) (*outcome, error)
	layers  func(rc *runCtx) (*outcome, error)
}

// runCtx is one invocation's state.
type runCtx struct {
	p        params
	w        *workload
	ds       *loggen.Dataset
	genTime  time.Duration
	lines    int
	segments int
	segOps   int
}

// outcome is what an invocation reports.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) notef(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

const (
	smokeLines = 2000
	// scanLines is 9 ingest ops of 16,384 lines: 15.6 MB of text, 5.2 MB
	// of compressed pages, 70 MB tokenized.
	scanLines   = 9 * ingestOpLines
	regexLines  = 40960 // 4.3 MB of text
	fleetLines  = 45056 // 4.8 MB of text over 4 shards, growing by a seventh as the tenant ingests
	fleetShards = 4
)

var workloads = []*workload{
	{
		name:  "ingest_stream",
		why:   "write path alone (lzah encode, tokenize, index add, segment append); no query layer runs, so a read-path change must not move it",
		lines: scanLines, segOps: scanLines / ingestOpLines, traceSegOps: scanLines / ingestOpLines,
		segsPerSecond: 7.6, minSegments: 23, clients: 1,
		measure: measureIngest, layers: layersIngest,
	},
	{
		name:  "scan_cold",
		why:   "uncached NoIndex scans of 8 token expressions: view, lzah decode, tokenize and filter do all the work; index, cache, router, server do none",
		lines: scanLines, segOps: len(scanExprs), traceSegOps: len(scanExprs),
		segsPerSecond: 1.82, minSegments: 25, clients: 1,
		measure: measureScan, layers: layersScan,
	},
	{
		name:  "scan_warm",
		why:   "same scans with the whole tokenized dataset in the page cache: decode and tokenize are bypassed, cuckoo filter and cache dominate",
		lines: scanLines, segOps: len(scanExprs), traceSegOps: len(scanExprs),
		segsPerSecond: 5.4, minSegments: 25, clients: 1,
		measure: measureScan, layers: layersScan,
	},
	{
		name:  "regex_grep",
		why:   "rounds of 3 index-prefiltered patterns and 1 no-factor fallback pattern: the rex NFA and regex planner dominate, the token filter does little",
		lines: regexLines, segOps: 5, traceSegOps: 3,
		segsPerSecond: 3.6, minSegments: 40, clients: 1,
		measure: measureRegex, layers: layersRegex,
	},
	{
		name:  "http_fleet_mixed",
		why:   "HTTP daemon over a 4-shard cached fleet, 2 clients, reads beside tenant ingest and flushes: scatter/merge, cache invalidation, limit and JSON costs show here",
		lines: fleetLines, segOps: 4, traceSegOps: 3,
		segsPerSecond: 1.75, minSegments: 26, clients: 2,
		measure: measureFleet, layers: layersFleet,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizeRun fixes a run's dataset size and op counts from the arguments alone.
func sizeRun(p params, w *workload) *runCtx {
	rc := &runCtx{p: p, w: w, lines: w.lines, segOps: w.segOps}
	rc.segments = int(math.Round(w.segsPerSecond * float64(p.seconds)))
	if rc.segments < w.minSegments {
		rc.segments = w.minSegments
	}
	if p.trace {
		// A traced run spends its time re-issuing sampled ops at each
		// entry point; its own loop, alternately plain and traced, only
		// feeds the registry deltas and the tracing-overhead ratio.
		rc.segments, rc.segOps = 4, w.traceSegOps
	}
	if p.smoke {
		rc.lines, rc.segments, rc.segOps = smokeLines, minSegments, 1
	}
	return rc
}

// newRunCtx sizes a run and generates its dataset.
func newRunCtx(p params, w *workload) *runCtx {
	rc := sizeRun(p, w)
	rc.ds, rc.genTime = generate(rc.lines, p.seed)
	return rc
}

// scanConfig is the engine configuration of a scan workload: scan_warm's
// cache holds the whole tokenized dataset, scan_cold has none.
func scanConfig(name string, rawBytes int) mithrilog.Config {
	if name == "scan_warm" {
		// The token stream amplifies text about 4.5x; 8x leaves headroom
		// so the LRU never evicts and the workload stays all-hit.
		return mithrilog.Config{CacheBytes: int64(rawBytes) * 8}
	}
	return mithrilog.Config{}
}
