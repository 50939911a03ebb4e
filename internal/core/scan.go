package core

import (
	"bytes"
	"context"
	"slices"
	"sync"

	"mithrilog/internal/filter"
	"mithrilog/internal/storage"
)

// scanStrategy is everything that distinguishes one scan path from
// another; the page loop (scanPages) is shared. The four strategies —
// built in Search and SearchRegexOpts, tabulated in ARCHITECTURE.md — are
// the paper's one read datapath (§4–5) and its variants, which differ only
// in the link a page crosses and in who evaluates its lines.
type scanStrategy struct {
	link storage.Link // the device link a cache-missing page crosses
	// cache is the decompressed-page cache to consult and populate, nil
	// for none (as when the engine has none). It is device-side DRAM, so
	// the host software fallback never sees it.
	cache   PageCache
	workers int // pages are striped over this many pipeline/decoder pairs
	// returnVerified counts the verified lines, not the matches, as bytes
	// returned to the host: a prefiltered regex ships every token-filter
	// survivor across the external link for the host NFA to see.
	returnVerified bool
	eval           pageEval
}

// pageEval judges one decoded page on worker w, once per page: text is
// the page's newline-separated lines, tb its tokens (non-nil exactly
// when the scan has a cache). kept are the lines satisfying the query;
// verified are the lines a host-side matcher had to look at to decide
// that (nil when the filter pipelines decided alone). Both alias text and
// are valid until the evaluator's next call on the same worker.
type pageEval func(w int, text []byte, tb *filter.TokenizedBlock) (verified, kept [][]byte, err error)

// cuckooEval keeps the lines the worker's configured filter pipeline
// passes: the fused tokenize-and-filter pass when the scan has no cache,
// the hash filters alone over the cache's dictionary-coded tokens
// otherwise.
func cuckooEval(st *scanState) pageEval {
	return func(w int, text []byte, tb *filter.TokenizedBlock) (_, kept [][]byte, err error) {
		if tb != nil {
			kept, err = st.pipes[w].FilterTokenized(tb)
		} else {
			kept, err = st.pipes[w].FilterBlock(text)
		}
		return nil, kept, err
	}
}

// allLines keeps every line of the page, for a host matcher to judge.
func allLines() pageEval {
	var lines [][]byte
	return func(_ int, text []byte, _ *filter.TokenizedBlock) (_, _ [][]byte, _ error) {
		lines = splitLines(text, lines)
		return nil, lines, nil
	}
}

// verifyEval runs a host-side matcher over the lines src keeps: the
// reference query matcher (software fallback), or the rex matcher — its
// literal gate, then its lazy DFA — over either the token filter's
// survivors (filter-then-verify) or every line (regex only). The
// closure's scratch — like rex.Regexp's DFA cache, which makes Match
// unsafe for concurrent use — is per evaluator, so strategies built on
// verifyEval or allLines run one worker.
func verifyEval(src pageEval, match func(line []byte) bool) pageEval {
	var kept [][]byte
	return func(w int, text []byte, tb *filter.TokenizedBlock) (_, _ [][]byte, err error) {
		_, verified, err := src(w, text, tb)
		if err != nil {
			return nil, nil, err
		}
		kept = kept[:0]
		for _, line := range verified {
			if match(line) {
				kept = append(kept, line)
			}
		}
		return verified, kept, nil
	}
}

// scanTotals is what a page scan — or, in scanPages, one worker's share
// of it — adds up to, in the units both result kinds report. Every count
// covers all kept lines, however few of them lines holds.
type scanTotals struct {
	matches     int
	verified    int      // lines a host-side matcher evaluated
	cachedPages int      // pages served from the page cache
	lines       [][]byte // copies of the collected lines (see scanPages)
	rawBytes    uint64   // decompressed volume evaluated
	compBytes   uint64   // compressed volume that crossed the strategy's link
	retBytes    uint64   // text volume returned to the host
}

// scanPages is the one page-scan executor. It stripes pages over
// s.workers workers, checking ctx between pages, and aggregates the
// workers' results so the output is independent of worker interleaving.
// With collect, the kept lines are copied out: all of them in page order
// when limit ≤ 0, else the limit smallest in canonical order, each worker
// keeping a bounded selection so that only lines entering it are copied.
// Any error — a device fault, a corrupt page, the context — fails the
// whole scan: the caller gets it and no partial totals.
func (e *Engine) scanPages(ctx context.Context, st *scanState, pages []storage.PageID, collect bool, limit int, s scanStrategy) (scanTotals, error) {
	outs := make([]scanTotals, s.workers)
	var sels []topLines      // per worker, when limited
	var pageLines [][][]byte // per page, when unlimited
	switch {
	case collect && limit > 0:
		sels = make([]topLines, s.workers)
		for w := range sels {
			sels[w].limit = limit
		}
	case collect:
		pageLines = make([][][]byte, len(pages))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, s.workers)
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st.pipes[w].ResetStats()
			st.decs[w].ResetStats()
			var raw []byte
			var kept [][]byte
			for i := w; i < len(pages); i += s.workers {
				err := ctxErr(ctx)
				if err == nil {
					raw, kept, err = e.scanPage(&s, st, w, pages[i], raw, &outs[w])
				}
				if err != nil {
					errCh <- err
					return
				}
				switch {
				case sels != nil:
					for _, l := range kept {
						sels[w].offer(l)
					}
				case pageLines != nil:
					for _, l := range kept {
						pageLines[i] = append(pageLines[i], append([]byte(nil), l...))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return scanTotals{}, err
	default:
	}
	var tot scanTotals
	for w := range outs {
		o := &outs[w]
		tot.matches += o.matches
		tot.verified += o.verified
		tot.cachedPages += o.cachedPages
		tot.rawBytes += o.rawBytes
		tot.retBytes += o.retBytes
	}
	for _, ls := range pageLines {
		tot.lines = append(tot.lines, ls...)
	}
	if sels != nil {
		for w := range sels {
			tot.lines = append(tot.lines, sels[w].lines...)
		}
		tot.lines = CanonicalLines(tot.lines, limit)
	}
	// Only cache misses cross the link as compressed pages.
	tot.compBytes = uint64(len(pages)-tot.cachedPages) * storage.PageSize
	return tot, nil
}

// CanonicalLines sorts lines in place into canonical (byte-wise
// lexicographic) order and returns the first limit of them, or all of
// them when limit ≤ 0. It is the one order a limited scan selects in and
// the router merges in, so an answer never depends on page layout, worker
// count or shard count.
func CanonicalLines(lines [][]byte, limit int) [][]byte {
	slices.SortFunc(lines, bytes.Compare)
	if limit > 0 && len(lines) > limit {
		lines = lines[:limit]
	}
	return lines
}

// topLines is one worker's bounded selection: the limit smallest lines
// offered to it, in canonical order. It appends until it holds 2·limit
// lines, then sorts and cuts back to limit; from then on a line is
// compared with the largest kept line before it is copied, and skipped
// unless it is smaller, so only lines that enter the selection are
// copied. Its buffer grows with the lines it holds, never to limit up
// front: a client chooses that number.
type topLines struct {
	limit int
	lines [][]byte
	full  bool // lines[limit-1] is the threshold a line must beat
}

func (t *topLines) offer(l []byte) {
	if t.full && bytes.Compare(l, t.lines[t.limit-1]) >= 0 {
		return
	}
	t.lines = append(t.lines, append([]byte(nil), l...))
	if len(t.lines)/2 >= t.limit { // not 2·limit: that can overflow
		t.lines = CanonicalLines(t.lines, t.limit)
		t.full = true
	}
}

// scanPage takes one page through the datapath on worker w, adding its
// totals to out, and returns the lines it kept (valid until the worker's
// next page). raw is the worker's reusable decode buffer, returned
// (possibly regrown) for the next page.
func (e *Engine) scanPage(s *scanStrategy, st *scanState, w int, pid storage.PageID, raw []byte, out *scanTotals) ([]byte, [][]byte, error) {
	var tb *filter.TokenizedBlock
	hit := false
	if s.cache != nil {
		tb, hit = s.cache.Get(pid)
	}
	if hit {
		out.cachedPages++
	} else {
		page, err := e.dev.View(s.link, pid)
		if err != nil {
			return raw, nil, err
		}
		if s.cache == nil {
			// Nobody retains the text: decode into the reused buffer.
			if raw, err = st.decs[w].Decompress(raw[:0], page); err != nil {
				return raw, nil, err
			}
		} else {
			// Decode into a fresh buffer the cache will own, and tokenize
			// it so hits re-enter the pipeline at the hash filters. The
			// fault and the failed decode have already returned, so only
			// intact pages ever enter the cache and a fault surfaces to
			// exactly the query that issued the read.
			fresh, err := st.decs[w].Decompress(nil, page)
			if err != nil {
				return raw, nil, err
			}
			tb = st.pipes[w].Tokenize(fresh)
			s.cache.Put(pid, tb)
		}
	}
	text := raw
	if tb != nil {
		text = tb.Block
	}
	verified, kept, err := s.eval(w, text, tb)
	if err != nil {
		return raw, nil, err
	}
	out.matches += len(kept)
	out.verified += len(verified)
	out.rawBytes += uint64(len(text))
	returned := kept
	if s.returnVerified {
		returned = verified
	}
	for _, l := range returned {
		out.retBytes += uint64(len(l) + 1)
	}
	return raw, kept, nil
}

// splitLines appends text's newline-separated lines to dst[:0] (the lines
// alias text).
func splitLines(text []byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	for len(text) > 0 {
		nl := bytes.IndexByte(text, '\n')
		if nl < 0 {
			return append(dst, text)
		}
		dst = append(dst, text[:nl])
		text = text[nl+1:]
	}
	return dst
}
