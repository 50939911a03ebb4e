package core

import (
	"context"
	"time"

	"mithrilog/internal/hwsim"
	"mithrilog/internal/query"
	"mithrilog/internal/rex"
	"mithrilog/internal/storage"
)

// softwareRegexBytesPerSecond calibrates the host's regex scan rate in the
// simulated timing; NFA simulation over text is markedly slower than
// token-containment scanning (HARE's motivation, §7.4.3).
const softwareRegexBytesPerSecond = 0.3e9

// RegexOptions tune a regex query execution.
type RegexOptions struct {
	// CollectLines materializes matching lines in the result.
	CollectLines bool
	// Limit bounds the collected lines exactly as SearchOptions.Limit does.
	Limit int
	// NoPrefilter forces the full decompress-and-scan path even when the
	// pattern has usable literal factors — the differential oracle's
	// reference configuration, and an escape hatch.
	NoPrefilter bool
	// Ctx, when non-nil, cancels the query between page scans.
	Ctx context.Context
}

// RegexResult reports a regex scan.
type RegexResult struct {
	// Matches is the number of matching lines.
	Matches int
	// Lines holds the matching lines when CollectLines was set: at most
	// Limit of them, in canonical order, when Limit > 0.
	Lines [][]byte

	// Prefiltered reports whether the literal-factor prefilter ran: the
	// pattern's required tokens were probed through the inverted index
	// and only candidate pages were scanned. False means extraction
	// yielded no usable factors and every page was scanned.
	Prefiltered bool
	// TotalPages and CandidatePages describe prefilter effectiveness;
	// without a prefilter CandidatePages == TotalPages.
	TotalPages, CandidatePages int
	// CachedPages is the number of scanned pages served from the
	// decompressed-page cache.
	CachedPages int
	// VerifiedLines is the number of lines handed to the rex matcher —
	// after token filtering on the prefiltered path, every line otherwise.
	VerifiedLines int

	// ScannedRawBytes is the decompressed volume evaluated.
	ScannedRawBytes uint64
	// ScannedCompBytes is the compressed volume that crossed a link for
	// this query (internal when prefiltered, external on the full scan).
	ScannedCompBytes uint64
	// ReturnedBytes is the text volume sent to the host. On the
	// prefiltered path that is every token-filter survivor (the host NFA
	// must see them); on the full scan the host already holds the pages,
	// so it is the matching lines only.
	ReturnedBytes uint64

	// IndexTime is the simulated index traversal time (prefiltered only).
	IndexTime time.Duration
	// StreamTime is the simulated time moving compressed pages over the
	// relevant link (internal when prefiltered, external on full scan).
	StreamTime time.Duration
	// FilterTime is the simulated accelerator token-filter time over
	// candidate pages (prefiltered path with a configured pipeline only).
	FilterTime time.Duration
	// VerifyTime is the simulated host NFA time over the verified lines.
	VerifyTime time.Duration
	// ReturnTime is the simulated time moving survivors to the host
	// (prefiltered only; the full scan's stream already is the return).
	ReturnTime time.Duration
	// QueueTime is simulated pipeline-contention wait, filled in by the
	// scheduler exactly as for token queries (prefiltered path only).
	QueueTime time.Duration
	// SimElapsed is the simulated end-to-end query time. Prefiltered:
	// IndexTime + max(StreamTime, FilterTime) + max(ReturnTime,
	// VerifyTime) (+ QueueTime under the scheduler). Full scan: the §3
	// raw-page forwarding configuration — compressed pages cross the PCIe
	// link and the host decompresses and regex-matches in software, so
	// max(StreamTime, VerifyTime).
	SimElapsed time.Duration
	// WallElapsed is the measured host time of the simulation.
	WallElapsed time.Duration
}

// SearchRegex scans lines against a rex pattern with default options;
// collect materializes matching lines. See SearchRegexOpts.
func (e *Engine) SearchRegex(pattern string, collect bool) (RegexResult, error) {
	return e.SearchRegexOpts(pattern, RegexOptions{CollectLines: collect})
}

// SearchRegexOpts evaluates a rex pattern over the store. When the
// pattern contains literal factors that any matching line must carry as
// whole tokens (rex.LiteralFactors), the factors are planned through the
// inverted index exactly like a token query: only candidate pages are
// decompressed, the filter pipelines drop candidate lines missing the
// required tokens, and the rex matcher runs on the survivors. Patterns with
// no usable factors (`.*`, pure classes, unbounded literals) fall back to
// the full decompress-and-scan; both paths return identical results.
func (e *Engine) SearchRegexOpts(pattern string, opts RegexOptions) (RegexResult, error) {
	start := time.Now()
	re, err := rex.Compile(pattern)
	if err != nil {
		return RegexResult{}, err
	}
	var fq query.Query
	usable := false
	if !opts.NoPrefilter {
		if f := rex.LiteralFactors(pattern); f.Usable() {
			fq = factorQuery(f)
			usable = fq.Validate() == nil
		}
	}
	var res RegexResult
	if err := ctxErr(opts.Ctx); err != nil {
		return res, err
	}
	e.mu.RLock()
	if len(e.pending) > 0 {
		e.mu.RUnlock()
		if err := e.seal(); err != nil {
			return res, err
		}
		e.mu.RLock()
	}
	defer e.mu.RUnlock()
	if len(e.dataPages) == 0 && len(e.pending) == 0 {
		return res, ErrNothingIngested
	}
	res.TotalPages = len(e.dataPages)
	st := e.getScanState()
	defer e.putScanState(st)
	candidates := e.dataPages
	var strategy scanStrategy
	lineFilter := false
	if usable {
		// The index-accelerated datapath: plan the factor query into
		// candidate pages, stream them through the decompress + tokenize +
		// hash-filter pipeline (sharing the decompressed-page cache with
		// token queries, so candidate pages warm the LRU), and rex-verify
		// only the surviving lines. If the factor query cannot be compiled
		// into the cuckoo tables the token filter is skipped and rex
		// verifies every candidate line — page-level pruning still applies.
		res.Prefiltered = true
		if candidates, res.IndexTime, _, err = e.plan(fq, SearchOptions{}); err != nil {
			return res, err
		}
		survivors := allLines()
		if lineFilter = st.pipes[0].Configure(fq) == nil; lineFilter {
			survivors = cuckooEval(st)
		}
		strategy = scanStrategy{link: storage.Internal, cache: e.cache, workers: 1, returnVerified: true, eval: verifyEval(survivors, re.Match)}
	} else {
		// Without usable factors every page crosses the external link (§3
		// raw-page forwarding) and the host NFA sees every line.
		strategy = scanStrategy{link: storage.External, cache: e.cache, workers: 1, eval: verifyEval(allLines(), re.Match)}
	}
	res.CandidatePages = len(candidates)
	tot, err := e.scanPages(opts.Ctx, st, candidates, opts.CollectLines, opts.Limit, strategy)
	if err != nil {
		return res, err
	}
	res.Matches, res.Lines, res.CachedPages, res.VerifiedLines = tot.matches, tot.lines, tot.cachedPages, tot.verified
	res.ScannedRawBytes, res.ScannedCompBytes, res.ReturnedBytes = tot.rawBytes, tot.compBytes, tot.retBytes
	if lineFilter {
		if cycles := st.pipes[0].Stats().Cycles; cycles > 0 {
			res.FilterTime = hwsim.CyclesToDuration(cycles, e.cfg.System.ClockHz)
		}
	}
	e.simulateRegexElapsed(&res)
	res.WallElapsed = time.Since(start)
	e.met.recordRegex(&res)
	return res, nil
}

// factorQuery lowers a required-token set into the engine's query model:
// one intersection set per conjunct, united — the exact offloadable form.
func factorQuery(f rex.Factors) query.Query {
	sets := make([]query.Intersection, 0, len(f.Conjuncts))
	for _, conj := range f.Conjuncts {
		terms := make([]query.Term, 0, len(conj))
		for _, tok := range conj {
			terms = append(terms, query.NewTerm(tok))
		}
		sets = append(sets, query.Intersection{Terms: terms})
	}
	return query.New(sets...)
}

// simulateRegexElapsed derives the modeled query time for each path; see
// RegexResult.SimElapsed.
func (e *Engine) simulateRegexElapsed(res *RegexResult) {
	if res.Prefiltered {
		res.StreamTime = e.dev.TransferTime(storage.Internal, res.ScannedCompBytes)
		res.ReturnTime = e.dev.TransferTime(storage.External, res.ReturnedBytes)
		res.VerifyTime = hwsim.DurationForBytes(res.ReturnedBytes, softwareRegexBytesPerSecond)
		t := res.IndexTime
		if res.StreamTime > res.FilterTime {
			t += res.StreamTime
		} else {
			t += res.FilterTime
		}
		if res.ReturnTime > res.VerifyTime {
			t += res.ReturnTime
		} else {
			t += res.VerifyTime
		}
		if t <= 0 {
			t = time.Nanosecond
		}
		res.SimElapsed = t
		return
	}
	// Full scan: the whole compressed store crosses the external link and
	// the host NFA-scans all decompressed text; the slower binds.
	res.StreamTime = e.dev.TransferTime(storage.External, e.compBytes)
	res.VerifyTime = hwsim.DurationForBytes(res.ScannedRawBytes, softwareRegexBytesPerSecond)
	if res.VerifyTime > res.StreamTime {
		res.SimElapsed = res.VerifyTime
	} else {
		res.SimElapsed = res.StreamTime
	}
}
