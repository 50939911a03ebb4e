package core

import (
	"context"
	"time"

	"mithrilog/internal/hwsim"
	"mithrilog/internal/obs"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// SearchOptions tune a query execution.
type SearchOptions struct {
	// NoIndex forces a full scan, bypassing the inverted index (the
	// §7.4.2 configuration that isolates filter performance).
	NoIndex bool
	// CollectLines controls whether matching lines are materialized in
	// the result (true for user queries; benchmarks may only need counts).
	CollectLines bool
	// Limit > 0 bounds the collected lines to the Limit smallest matching
	// lines in canonical byte order (CanonicalLines); only lines that can
	// still be among them are copied out of their pages. Matches and every
	// byte count and simulated time still cover all matching lines.
	// Limit ≤ 0 collects every matching line, in page order.
	Limit int
	// From/To restrict the query to data pages between the snapshot
	// boundaries enclosing the time range; zero values disable the bound.
	From, To time.Time
	// Ctx, when non-nil, cancels the query between page scans: a deadline
	// or cancellation set by the scheduler (or an HTTP client hanging up)
	// aborts the scan with the context's error instead of finishing the
	// whole candidate set. Nil disables cancellation checks.
	Ctx context.Context
	// Trace, when non-nil, receives a span tree of the query's stages
	// (index probe → configure → page scan) with per-stage attributes.
	// Nil disables tracing at zero cost.
	Trace *obs.Span
}

// ctxErr reports the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// SearchResult reports a query execution with both functional output and
// the simulated platform timing.
type SearchResult struct {
	// Matches is the number of lines satisfying the query.
	Matches int
	// Lines holds the matching lines if CollectLines was set: at most
	// Limit of them, in canonical order, when Limit > 0.
	Lines [][]byte

	// TotalPages and CandidatePages describe index effectiveness.
	TotalPages, CandidatePages int
	// CachedPages is the number of candidate pages served from the
	// decompressed-page cache (offloaded path only); those pages paid
	// neither the internal-link flash read nor the decompression.
	CachedPages int
	// ScannedRawBytes is the decompressed volume that crossed the filter.
	ScannedRawBytes uint64
	// ScannedCompBytes is the compressed volume read over the internal link.
	ScannedCompBytes uint64
	// ReturnedBytes is the matching text volume sent to the host.
	ReturnedBytes uint64

	// Offloaded reports whether the accelerator path ran; false means the
	// query could not be compiled into the cuckoo tables and host software
	// evaluated it instead.
	Offloaded bool
	// UsedIndex reports whether the inverted index pruned the page set.
	UsedIndex bool

	// MaxPipelineCycles is the busiest pipeline's functional cycle count.
	MaxPipelineCycles uint64
	// PipelineCycles holds each pipeline's busy-cycle count for this query
	// (offloaded path only; index i is pipeline i).
	PipelineCycles []uint64
	// PipelineUtilization is each pipeline's datapath utilization for this
	// query: raw bytes streamed / (cycles × datapath width), 1.0 = wire
	// speed (offloaded path only).
	PipelineUtilization []float64
	// IndexTime is the simulated index traversal time.
	IndexTime time.Duration
	// StreamTime is the simulated time to move the candidate pages over
	// the relevant link (internal when offloaded, external on fallback).
	StreamTime time.Duration
	// FilterTime is the simulated accelerator (or host matcher) compute
	// time; it overlaps StreamTime, and the slower of the two binds.
	FilterTime time.Duration
	// ReturnTime is the simulated time to move matching lines to the host.
	ReturnTime time.Duration
	// QueueTime is the simulated time this query spent waiting for the
	// filter-pipeline complex while other in-flight queries held it. The
	// engine itself always reports zero; the concurrent scheduler
	// (internal/sched) fills it in from the hwsim arbiter and folds it
	// into SimElapsed.
	QueueTime time.Duration
	// SimElapsed is the simulated end-to-end query time on the modeled
	// platform: IndexTime + max(StreamTime, FilterTime) + ReturnTime,
	// plus QueueTime when the query ran through the scheduler.
	SimElapsed time.Duration
	// WallElapsed is the measured host wall-clock time of this simulation.
	WallElapsed time.Duration
}

// EffectiveThroughput is the §7.4.2 metric: original dataset size divided
// by (simulated) elapsed time. With an effective index or compression it
// can exceed raw storage bandwidth.
func (r SearchResult) EffectiveThroughput(datasetRawBytes uint64) float64 {
	if r.SimElapsed <= 0 {
		return 0
	}
	return hwsim.BytesPerSecond(datasetRawBytes, r.SimElapsed)
}

// Search executes a query through the near-storage path.
func (e *Engine) Search(q query.Query, opts SearchOptions) (SearchResult, error) {
	start := time.Now()
	sp := opts.Trace
	sp.SetAttr("query", q.String())
	var res SearchResult
	if err := q.Validate(); err != nil {
		return res, err
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return res, err
	}
	// Queries share the device: they run concurrently under a read lock,
	// each with its own pipeline set from the pool. Only a pending-line
	// flush needs the write lock, so take it up front when required.
	e.mu.RLock()
	if len(e.pending) > 0 {
		e.mu.RUnlock()
		// Make buffered lines visible: real systems answer queries over
		// data that has reached storage; we flush for determinism.
		flushSpan := sp.StartChild("flush")
		err := e.Flush()
		flushSpan.End()
		if err != nil {
			return res, err
		}
		e.mu.RLock()
	}
	defer e.mu.RUnlock()
	if len(e.dataPages) == 0 && len(e.pending) == 0 {
		return res, ErrNothingIngested
	}
	res.TotalPages = len(e.dataPages)

	// Plan: index-pruned candidate pages.
	planStart := time.Now()
	planSpan := sp.StartChild("index probe")
	candidates, indexTime, usedIndex, err := e.plan(q, opts)
	if err != nil {
		planSpan.End()
		return res, err
	}
	res.CandidatePages = len(candidates)
	res.UsedIndex = usedIndex
	res.IndexTime = indexTime
	planSpan.SetAttrInt("totalPages", int64(res.TotalPages))
	planSpan.SetAttrInt("candidatePages", int64(res.CandidatePages))
	planSpan.SetAttrBool("usedIndex", usedIndex)
	planSpan.SetAttrInt("simIndexNs", indexTime.Nanoseconds())
	planSpan.End()
	e.met.stage("plan", time.Since(planStart))

	// Configure the accelerator. Any compile failure — too many sets,
	// cuckoo placement failure, overflow exhaustion, conflicting column
	// constraints, contradictory polarities — means the query cannot be
	// offloaded; exactly as §4.2.1 prescribes, it falls back to host
	// software evaluation.
	confStart := time.Now()
	confSpan := sp.StartChild("configure")
	st := e.getScanState()
	defer e.putScanState(st)
	offloaded := true
	for _, p := range st.pipes {
		if err := p.Configure(q); err != nil {
			offloaded = false
			confSpan.SetAttr("fallbackReason", err.Error())
			break
		}
	}
	res.Offloaded = offloaded
	confSpan.SetAttrBool("offloaded", offloaded)
	confSpan.End()
	e.met.stage("configure", time.Since(confStart))

	scanStart := time.Now()
	scanSpan := sp.StartChild("page scan")
	// Offloaded, pages are striped across the near-storage pipelines, each
	// crossing the internal link to be decompressed and filtered in place.
	// On fallback they cross the external link and the host evaluates the
	// reference matcher.
	var strategy scanStrategy
	if offloaded {
		strategy = scanStrategy{link: storage.Internal, cache: e.cache, workers: len(st.pipes), eval: cuckooEval(st)}
	} else {
		reference := func(line []byte) bool { return q.Match(string(line)) }
		strategy = scanStrategy{link: storage.External, workers: 1, eval: verifyEval(allLines(), reference)}
	}
	tot, err := e.scanPages(opts.Ctx, st, candidates, opts.CollectLines, opts.Limit, strategy)
	if err != nil {
		scanSpan.End()
		return res, err
	}
	res.Matches, res.Lines, res.CachedPages = tot.matches, tot.lines, tot.cachedPages
	res.ScannedRawBytes, res.ScannedCompBytes, res.ReturnedBytes = tot.rawBytes, tot.compBytes, tot.retBytes
	if offloaded {
		pipelineCycles(st, &res)
	}
	scanSpan.SetAttrInt("pages", int64(len(candidates)))
	scanSpan.SetAttrInt("scannedRawBytes", int64(res.ScannedRawBytes))
	scanSpan.SetAttrInt("matches", int64(res.Matches))
	scanSpan.End()
	e.met.stage("scan", time.Since(scanStart))

	res.SimElapsed = e.simulateElapsed(&res, offloaded)
	res.WallElapsed = time.Since(start)
	sp.SetAttrBool("offloaded", offloaded)
	sp.SetAttrInt("matches", int64(res.Matches))
	sp.SetAttrInt("simElapsedNs", res.SimElapsed.Nanoseconds())
	sp.SetAttrInt("simStreamNs", res.StreamTime.Nanoseconds())
	sp.SetAttrInt("simFilterNs", res.FilterTime.Nanoseconds())
	sp.SetAttrInt("simReturnNs", res.ReturnTime.Nanoseconds())
	ratio := 0.0
	if e.compBytes > 0 {
		ratio = float64(e.rawBytes) / float64(e.compBytes)
	}
	e.met.recordSearch(&res, e.cfg.System, ratio)
	e.met.searchWallSec.Observe(res.WallElapsed.Seconds())
	return res, nil
}

// ObserveParseTime records the parse stage of a query's wall time into the
// search-stage histogram. Parsing happens in the public facade (the engine
// receives an already-built query), so the facade reports it here to keep
// the full parse → plan → configure → scan breakdown in one metric.
func (e *Engine) ObserveParseTime(d time.Duration) {
	e.met.stage("parse", d)
}

// plan consults the inverted index: per intersection set, intersect the
// positive terms' candidate pages; union across sets. Sets without
// positive terms force a full scan (negative terms cannot prune, §7.5).
//
// Unselective tokens are skipped without traversal: the in-memory bucket
// counters give an O(1) upper bound on a token's candidate pages, and a
// token hashing to buckets covering most of the store cannot prune the
// intersection — it would only add latency-bound root hops. Skipping a
// lookup can only widen the candidate set, which the filter corrects.
// Independent lookups are issued concurrently, so the simulated index
// time is the slowest chain's dependent hops plus the total transfer.
func (e *Engine) plan(q query.Query, opts SearchOptions) (pages []storage.PageID, indexTime time.Duration, usedIndex bool, err error) {
	inRange := e.pagesInRange(opts)
	if opts.NoIndex {
		return inRange, 0, false, nil
	}
	totalPages := uint64(len(e.dataPages))
	union := make(map[storage.PageID]bool)
	fullScan := false
	var maxChain time.Duration
	var transfer time.Duration
	for _, set := range q.Sets {
		var lists [][]storage.PageID
		positives := 0
		pruners := 0
		for _, t := range set.Terms {
			if t.Negated {
				continue
			}
			positives++
			// Stop-word skip: a token whose buckets cover most pages
			// cannot narrow the candidate set.
			if e.ix.BucketPages(t.Token) > totalPages/2 {
				continue
			}
			lr, lerr := e.ix.Lookup(t.Token)
			if lerr != nil {
				return nil, 0, false, lerr
			}
			pruners++
			if chain := e.dev.DependentAccessTime(uint64(lr.RootHops)); chain > maxChain {
				maxChain = chain
			}
			transfer += e.dev.TransferTime(storage.External,
				uint64(lr.IndexPagesRead+lr.LeafPagesRead)*storage.PageSize)
			lists = append(lists, lr.Pages)
		}
		if positives == 0 || pruners == 0 {
			// No positive terms, or none selective enough to consult.
			fullScan = true
			continue
		}
		for _, p := range intersectPages(lists) {
			union[p] = true
		}
	}
	indexTime = maxChain + transfer
	if fullScan {
		return inRange, indexTime, true, nil
	}
	// Restrict to the time range and preserve page order (the index
	// normalized its reverse-chronological lists to ascending, §6.3).
	out := make([]storage.PageID, 0, len(union))
	for _, p := range inRange {
		if union[p] {
			out = append(out, p)
		}
	}
	return out, indexTime, true, nil
}

// pagesInRange returns the data pages between the time boundaries that
// enclose opts' From/To range, in page order. The segment store holds the
// boundaries as page counts, so the range is a slice of dataPages.
func (e *Engine) pagesInRange(opts SearchOptions) []storage.PageID {
	lo, hi := 0, len(e.dataPages)
	if !opts.From.IsZero() {
		lo = e.store.PagesBefore(opts.From)
	}
	if !opts.To.IsZero() {
		hi = min(hi, e.store.PagesBefore(opts.To))
	}
	if lo >= hi {
		return nil
	}
	return e.dataPages[lo:hi:hi]
}

func intersectPages(lists [][]storage.PageID) []storage.PageID {
	if len(lists) == 0 {
		return nil
	}
	out := lists[0]
	for _, l := range lists[1:] {
		out = intersect2Pages(out, l)
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

func intersect2Pages(a, b []storage.PageID) []storage.PageID {
	var out []storage.PageID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// pipelineCycles reads back each pipeline's busy cycles after an
// accelerated scan; the busiest pipeline binds the simulated filter time.
func pipelineCycles(st *scanState, res *SearchResult) {
	res.PipelineCycles = make([]uint64, len(st.pipes))
	res.PipelineUtilization = make([]float64, len(st.pipes))
	for i, p := range st.pipes {
		pst := p.Stats()
		res.PipelineCycles[i] = pst.Cycles
		res.PipelineUtilization[i] = pst.Utilization()
		if pst.Cycles > res.MaxPipelineCycles {
			res.MaxPipelineCycles = pst.Cycles
		}
	}
}

// simulateElapsed derives the modeled query time: index traversal, then
// the slower of (a) streaming compressed pages over the appropriate link
// and (b) the filter pipelines' cycle time, then returning matches to the
// host over the external link.
func (e *Engine) simulateElapsed(res *SearchResult, offloaded bool) time.Duration {
	if offloaded {
		res.StreamTime = e.dev.TransferTime(storage.Internal, res.ScannedCompBytes)
		sys := e.cfg.System
		if res.MaxPipelineCycles > 0 {
			res.FilterTime = hwsim.CyclesToDuration(res.MaxPipelineCycles, sys.ClockHz)
		}
		res.ReturnTime = e.dev.TransferTime(storage.External, res.ReturnedBytes)
	} else {
		// Software path: everything crosses the external link, and the
		// host matcher runs at a calibrated software text rate. Matching
		// lines are already host-side, so ReturnTime is zero.
		res.StreamTime = e.dev.TransferTime(storage.External, res.ScannedCompBytes)
		res.FilterTime = hwsim.DurationForBytes(res.ScannedRawBytes, softwareScanBytesPerSecond)
	}
	t := res.IndexTime + res.ReturnTime
	if res.StreamTime > res.FilterTime {
		t += res.StreamTime
	} else {
		t += res.FilterTime
	}
	if t <= 0 {
		t = time.Nanosecond
	}
	return t
}

// softwareScanBytesPerSecond calibrates the host fallback's text
// processing rate in the simulated timing (≈ a well-optimized
// single-socket software scanner, per the paper's MonetDB observations of
// ~1-3 GB/s effective on simple queries).
const softwareScanBytesPerSecond = 1.5e9
