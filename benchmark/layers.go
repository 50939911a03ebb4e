package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mithrilog/internal/core"
	"mithrilog/internal/cuckoo"
	"mithrilog/internal/filter"
	"mithrilog/internal/hwsim"
	"mithrilog/internal/lzah"
	"mithrilog/internal/query"
	"mithrilog/internal/rex"
	"mithrilog/internal/sched"
	"mithrilog/internal/storage"
)

// stack is a single engine assembled by hand from the segment stream the
// facade engine was reopened from, the way mithrilog.Reopen assembles it,
// so that each entry point under the facade (scheduler, core engine, the
// device and leaf packages) can be called on its own.
type stack struct {
	core  *core.Engine
	cache *sched.PageCache // nil without a cache
	sched *sched.Scheduler
	pages []storage.PageID // every data page, in order
}

func newStack(stream []byte, cacheBytes int64) (*stack, error) {
	s := &stack{}
	var ccfg core.Config
	if cacheBytes > 0 {
		s.cache = sched.NewPageCache(cacheBytes)
		ccfg.PageCache = s.cache
	}
	eng, err := core.ReopenEngine(ccfg, bytes.NewReader(stream))
	if err != nil {
		return nil, fmt.Errorf("reopen core engine: %w", err)
	}
	s.core = eng
	s.sched = sched.New(eng, sched.Config{})
	// The engine keeps its data-page list to itself; opening the same
	// stream on a scratch device yields the same page ids in the same
	// order (ReopenEngine does exactly this before re-indexing).
	store, err := storage.OpenSegmentStore(storage.New(storage.Config{}), bytes.NewReader(stream))
	if err != nil {
		return nil, fmt.Errorf("open segment stream: %w", err)
	}
	for _, rec := range store.Records() {
		s.pages = append(s.pages, rec.Page)
	}
	if len(s.pages) != eng.DataPages() {
		return nil, fmt.Errorf("segment stream lists %d data pages, engine holds %d", len(s.pages), eng.DataPages())
	}
	return s, nil
}

// engineParallelism is how many of a scan's page-striped pipelines can run
// at once: the replay below is single-threaded, the engine is not.
func engineParallelism() int {
	if n := runtime.GOMAXPROCS(0); n < hwsim.DefaultPipelines {
		return n
	}
	return hwsim.DefaultPipelines
}

// planPages reproduces the engine's index plan from outside, through the
// exported index: per intersection set, intersect the page lists of the
// positive terms selective enough to consult; unite across sets. full means
// some set had nothing to consult, which forces a scan of every page. It
// also returns the time the lookups took and how many there were.
func planPages(eng *core.Engine, q query.Query) (pages []storage.PageID, full bool, lookupTime time.Duration, lookups int, err error) {
	ix := eng.Index()
	total := uint64(eng.DataPages())
	union := map[storage.PageID]bool{}
	for _, set := range q.Sets {
		var lists [][]storage.PageID
		for _, t := range set.Terms {
			if t.Negated || ix.BucketPages(t.Token) > total/2 {
				continue
			}
			start := time.Now()
			lr, lerr := ix.Lookup(t.Token)
			lookupTime += time.Since(start)
			lookups++
			if lerr != nil {
				return nil, false, 0, 0, fmt.Errorf("index lookup %q: %w", t.Token, lerr)
			}
			lists = append(lists, lr.Pages)
		}
		if len(lists) == 0 {
			return nil, true, lookupTime, lookups, nil
		}
		for _, p := range intersectSorted(lists) {
			union[p] = true
		}
	}
	pages = make([]storage.PageID, 0, len(union))
	for p := range union {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages, false, lookupTime, lookups, nil
}

func intersectSorted(lists [][]storage.PageID) []storage.PageID {
	out := lists[0]
	for _, l := range lists[1:] {
		var next []storage.PageID
		i, j := 0, 0
		for i < len(out) && j < len(l) {
			switch {
			case out[i] < l[j]:
				i++
			case out[i] > l[j]:
				j++
			default:
				next = append(next, out[i])
				i++
				j++
			}
		}
		out = next
	}
	return out
}

// leafTimes accumulates a single-threaded replay of leaf-package calls.
type leafTimes struct {
	view, decode, tokenize, cacheGet, filter, match time.Duration
	// filterBlock is Pipeline.FilterBlock, tokenize and filter in one call,
	// which is what an uncached token scan runs per page.
	filterBlock time.Duration
	// compile is regex compilation plus factor extraction; lookup the
	// index probes of the plan.
	compile, lookup        time.Duration
	pages, viewed, lookups int
	// decodedBytes counts pages that were decompressed, tokenizedBytes
	// those that were also tokenized; filtered*, words and kept count the
	// pages run through the token filter.
	decodedBytes, tokenizedBytes              int64
	filteredBytes, filteredLines, words, kept int64
	verified, matched                         int64
}

func (l *leafTimes) add(o leafTimes) {
	l.view += o.view
	l.decode += o.decode
	l.tokenize += o.tokenize
	l.cacheGet += o.cacheGet
	l.filter += o.filter
	l.filterBlock += o.filterBlock
	l.match += o.match
	l.compile += o.compile
	l.lookup += o.lookup
	l.pages += o.pages
	l.viewed += o.viewed
	l.lookups += o.lookups
	l.words += o.words
	l.decodedBytes += o.decodedBytes
	l.tokenizedBytes += o.tokenizedBytes
	l.filteredBytes += o.filteredBytes
	l.filteredLines += o.filteredLines
	l.kept += o.kept
	l.verified += o.verified
	l.matched += o.matched
}

// busy is the replay's summed call time.
func (l leafTimes) busy() time.Duration {
	return l.view + l.decode + l.tokenize + l.cacheGet + l.filter + l.filterBlock + l.match + l.compile + l.lookup
}

// replayScan walks the op's candidate pages on one goroutine, calling each
// leaf the engine's scan calls: Device.View, Codec.Decompress,
// Pipeline.Tokenize and Pipeline.FilterTokenized, or, when cache is set,
// PageCache.Get and FilterTokenized alone. fused replaces Tokenize and
// FilterTokenized by the one FilterBlock call an uncached token scan makes.
// With re set it ends each page the way a regex scan does, Regexp.Match on
// every surviving line; with q nil (no usable factors) every line survives.
func replayScan(tr *tracer, parent, op int, dev *storage.Device, cache *sched.PageCache, pages []storage.PageID, q *query.Query, re *rex.Regexp, fused bool) (leafTimes, error) {
	var lt leafTimes
	pipe := filter.NewPipeline(filter.PipelineConfig{})
	if q != nil {
		if err := pipe.Configure(*q); err != nil {
			return lt, fmt.Errorf("configure %s: %w", q, err)
		}
	}
	dec := lzah.NewCodec(lzah.Options{})
	var raw []byte
	start := time.Now()
	for _, pid := range pages {
		var tb *filter.TokenizedBlock
		var text []byte
		t0 := time.Now()
		if cache != nil {
			if got, ok := cache.Get(pid); ok {
				tb, text = got, got.Block
				lt.cacheGet += time.Since(t0)
			}
		}
		if text == nil {
			t0 = time.Now()
			page, err := dev.View(storage.Internal, pid)
			t1 := time.Now()
			if err != nil {
				return lt, fmt.Errorf("view page %d: %w", pid, err)
			}
			raw, err = dec.Decompress(raw[:0], page)
			t2 := time.Now()
			if err != nil {
				return lt, fmt.Errorf("decompress page %d: %w", pid, err)
			}
			text = raw
			lt.view += t1.Sub(t0)
			lt.decode += t2.Sub(t1)
			lt.viewed++
			lt.decodedBytes += int64(len(raw))
			if q != nil && !fused {
				// Only a token filter needs the word stream; a scan
				// without one matches on the text as decoded.
				tb = pipe.Tokenize(raw)
				lt.tokenize += time.Since(t2)
				lt.tokenizedBytes += int64(len(raw))
			}
		}
		lt.pages++
		var survivors [][]byte
		if q != nil && tb == nil {
			t0 = time.Now()
			kept, err := pipe.FilterBlock(text)
			lt.filterBlock += time.Since(t0)
			if err != nil {
				return lt, fmt.Errorf("filter page %d: %w", pid, err)
			}
			lt.filteredLines += int64(bytes.Count(text, []byte{'\n'}))
			lt.kept += int64(len(kept))
			survivors = kept
		} else if q != nil {
			t0 = time.Now()
			kept, err := pipe.FilterTokenized(tb)
			lt.filter += time.Since(t0)
			if err != nil {
				return lt, fmt.Errorf("filter page %d: %w", pid, err)
			}
			lt.filteredBytes += int64(len(text))
			lt.filteredLines += int64(tb.Lines())
			lt.words += int64(len(tb.Words))
			lt.kept += int64(len(kept))
			survivors = kept
		} else if re != nil {
			survivors = bytes.Split(bytes.TrimSuffix(text, []byte{'\n'}), []byte{'\n'})
		}
		if re != nil {
			t0 = time.Now()
			for _, line := range survivors {
				if re.Match(line) {
					lt.matched++
				}
			}
			lt.match += time.Since(t0)
			lt.verified += int64(len(survivors))
		}
	}
	end := time.Now()
	for _, st := range []struct {
		name string
		busy time.Duration
	}{
		{"storage.view", lt.view}, {"lzah.decode", lt.decode}, {"tokenizer", lt.tokenize},
		{"sched.cache_get", lt.cacheGet}, {"filter", lt.filter}, {"filter.block", lt.filterBlock}, {"rex.match", lt.match},
	} {
		if st.busy > 0 {
			tr.recordBusy(st.name, parent, op, start, end, st.busy, lt.pages)
		}
	}
	return lt, nil
}

// cuckooMicro times scalar and batched lookups of a page's tokens against
// each query's compiled table, per token.
func cuckooMicro(queries []query.Query, block []byte) (scalarNs, batchNs float64, err error) {
	toks := bytes.Fields(block)
	if len(toks) == 0 {
		return 0, 0, nil
	}
	rows := make([]int32, len(toks))
	pairs := make([][]cuckoo.FlagPair, len(toks))
	const passes = 40
	var scalar, batch time.Duration
	n := 0
	for _, q := range queries {
		tbl, cerr := cuckoo.Compile(q, cuckoo.Config{})
		if cerr != nil {
			return 0, 0, fmt.Errorf("cuckoo compile %s: %w", q, cerr)
		}
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, t := range toks {
				_, _, _ = tbl.LookupBytes(t)
			}
		}
		scalar += time.Since(start)
		start = time.Now()
		for p := 0; p < passes; p++ {
			tbl.LookupBatch(toks, rows, pairs)
		}
		batch += time.Since(start)
		n += passes * len(toks)
	}
	return float64(scalar.Nanoseconds()) / float64(n), float64(batch.Nanoseconds()) / float64(n), nil
}

// decodePage returns one data page's text.
func decodePage(dev *storage.Device, pid storage.PageID) ([]byte, error) {
	page, err := dev.View(storage.Internal, pid)
	if err != nil {
		return nil, fmt.Errorf("view page %d: %w", pid, err)
	}
	raw, err := lzah.NewCodec(lzah.Options{}).Decompress(nil, page)
	if err != nil {
		return nil, fmt.Errorf("decompress page %d: %w", pid, err)
	}
	return raw, nil
}

// encodeMicro re-compresses decompressed pages with a fresh codec and
// returns MB/s of raw text.
func encodeMicro(dev *storage.Device, pages []storage.PageID) (float64, error) {
	enc := lzah.NewCodec(lzah.Options{})
	var raws [][]byte
	for _, pid := range pages {
		raw, err := decodePage(dev, pid)
		if err != nil {
			return 0, err
		}
		raws = append(raws, raw)
	}
	var out []byte
	var n int64
	start := time.Now()
	for _, raw := range raws {
		out = enc.Compress(out[:0], raw)
		n += int64(len(raw))
	}
	return mbPerSec(n, time.Since(start)), nil
}

func mbPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func perCall(d time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return d / time.Duration(n)
}
