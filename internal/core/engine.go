// Package core assembles the MithriLog system (§3): a simulated SSD with
// near-storage filter pipelines behind its internal link, LZAH-compressed
// data pages, and the in-storage inverted index. The Engine exposes the
// paper's two host-visible operations — ingest and query — and reports
// both functional results and the simulated platform timing from which
// the §7 figures are reproduced.
//
// Ingest path: lines are batched into page groups, LZAH-compressed so
// each group fits one 4 KiB storage page, written to the device, and the
// group's distinct tokens are fed to the inverted index.
//
// Query path: the host compiles the query into the accelerator's cuckoo
// tables (falling back to host-side evaluation if compilation fails),
// consults the index for candidate pages, and streams those pages through
// the near-storage pipelines: each page crosses the internal link, is
// decompressed at one word per cycle, tokenized, and hash-filtered; only
// matching lines cross the external link to the host.
package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"mithrilog/internal/filter"
	"mithrilog/internal/hwsim"
	"mithrilog/internal/index"
	"mithrilog/internal/lzah"
	"mithrilog/internal/obs"
	"mithrilog/internal/storage"
)

// Config assembles an Engine.
type Config struct {
	// Storage configures the simulated SSD.
	Storage storage.Config
	// System configures the accelerator envelope (pipelines, clock).
	System hwsim.SystemConfig
	// Pipeline configures each filter pipeline.
	Pipeline filter.PipelineConfig
	// Index configures the inverted index.
	Index index.Params
	// Compression configures the LZAH codec. The engine always compresses
	// with newline alignment, which its page cut relies on, so
	// DisableNewlineAlign is cleared; the alignment ablation runs at codec
	// level.
	Compression lzah.Options
	// MaxLineBytes rejects pathologically long lines at ingest; lines
	// must compress into a single page (default 3500).
	MaxLineBytes int
	// Metrics receives the engine's instrumentation; nil creates a
	// private registry (always reachable via Engine.Obs). Sharing one
	// registry between engines merges their counters.
	Metrics *obs.Registry
	// PageCache, when non-nil, caches decompressed data pages across
	// queries on the accelerated scan path and is invalidated on every
	// flush boundary. internal/sched provides the LRU implementation.
	PageCache PageCache
}

func (c Config) withDefaults() Config {
	c.System = c.System.WithDefaults()
	c.Compression.DisableNewlineAlign = false
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 3500
	}
	return c
}

// ErrLineTooLong reports an ingest line exceeding MaxLineBytes.
var ErrLineTooLong = errors.New("core: line too long for a single data page")

// ErrNothingIngested reports a query against an empty engine.
var ErrNothingIngested = errors.New("core: no data ingested")

// Engine is a MithriLog instance. All exported methods are safe for
// concurrent use. Mutators (ingest, flush, snapshot, segment writes)
// serialize on a write lock; queries run concurrently under a shared read
// lock, each with its own filter-pipeline set drawn from a pool. The
// simulated-hardware consequence of that concurrency — several queries
// contending for the device's four physical pipelines — is accounted by
// hwsim.Arbiter through internal/sched, which fronts the engine with
// admission control and fills in SearchResult.QueueTime.
type Engine struct {
	mu  sync.RWMutex
	cfg Config

	dev   *storage.Device
	store *storage.SegmentStore // segment bookkeeping over dev's data pages
	ix    *index.Index
	codec *lzah.Codec // ingest-side compressor

	// scanPool recycles per-query scan state (filter pipelines and LZAH
	// decompressors). Pipelines hold a compiled query configuration and
	// per-query statistics, so concurrent queries must not share them —
	// exactly as each hardware query owns the pipeline configuration for
	// its duration.
	scanPool sync.Pool

	// cache is the optional decompressed-page cache (nil disables).
	cache PageCache

	dataPages []storage.PageID // guarded by mu
	rawBytes  uint64           // guarded by mu
	compBytes uint64           // guarded by mu
	lineCount uint64           // guarded by mu

	// ingest batching state: the buffered lines, each copied in with its
	// newline, and where each one ends in pending.
	pending     []byte  // guarded by mu
	pendingEnds []int   // guarded by mu
	ratioGuess  float64 // guarded by mu

	// ingest scratch, reused across pages so the steady-state ingest path
	// allocates nothing per line: the compressed image of pending with a
	// cut at every line end, and the page indexer's distinct-token set and
	// first-seen token list.
	compBuf  []byte         // guarded by mu
	cuts     []lzah.LineCut // guarded by mu
	pageSet  tokenSet       // guarded by mu
	pageToks [][]byte       // guarded by mu

	// ingest profiling (wall time per stage)
	profile IngestProfile // guarded by mu

	// met publishes hot-path instrumentation (never nil).
	met *engineMetrics
}

// IngestProfile breaks down where ingest wall time goes; the paper's
// ingest-path requirement is that indexing keeps up with storage (§6).
type IngestProfile struct {
	// CompressTime is host wall time spent in LZAH compression.
	CompressTime time.Duration
	// IndexTime is host wall time spent inserting tokens into the index.
	IndexTime time.Duration
	// PagesWritten and TokensIndexed count the work done.
	PagesWritten  uint64
	TokensIndexed uint64
}

// NewEngine builds an empty MithriLog system.
func NewEngine(cfg Config) *Engine {
	dev := storage.New(cfg.Storage)
	return newEngine(cfg, storage.NewSegmentStore(dev, cfg.Storage.SegmentPages))
}

// newEngine builds an engine over a segment store and its device, with an
// empty index.
func newEngine(cfg Config, store *storage.SegmentStore) *Engine {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	dev := store.Device()
	e := &Engine{
		cfg:        cfg,
		dev:        dev,
		store:      store,
		ix:         index.New(dev, cfg.Index),
		codec:      lzah.NewCodec(cfg.Compression),
		cache:      cfg.PageCache,
		ratioGuess: 3.0,
		met:        newEngineMetrics(reg),
	}
	e.scanPool.New = func() interface{} { return newScanState(cfg) }
	storage.RegisterDeviceMetrics(reg, dev)
	storage.RegisterSegmentMetrics(reg, e.store)
	hwsim.RegisterSystemMetrics(reg, cfg.System)
	return e
}

// scanState is one query's private accelerator view: a full set of filter
// pipelines and their near-storage decompressors.
type scanState struct {
	pipes []*filter.Pipeline
	decs  []*lzah.Codec
}

func newScanState(cfg Config) *scanState {
	st := &scanState{}
	for i := 0; i < cfg.System.Pipelines; i++ {
		st.pipes = append(st.pipes, filter.NewPipeline(cfg.Pipeline))
		st.decs = append(st.decs, lzah.NewCodec(cfg.Compression))
	}
	return st
}

// getScanState draws a scan state from the pool; putScanState returns it.
func (e *Engine) getScanState() *scanState   { return e.scanPool.Get().(*scanState) }
func (e *Engine) putScanState(st *scanState) { e.scanPool.Put(st) }

// Obs returns the engine's metrics registry; the HTTP layer serves it at
// GET /metrics and registers its own request metrics into it.
func (e *Engine) Obs() *obs.Registry { return e.met.reg }

// Device exposes the simulated SSD (for stats and benchmarks).
func (e *Engine) Device() *storage.Device { return e.dev }

// Index exposes the inverted index (for stats).
func (e *Engine) Index() *index.Index { return e.ix }

// RawBytes is the total uncompressed text ingested (incl. newlines).
func (e *Engine) RawBytes() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rawBytes
}

// CompressedBytes is the total compressed volume in data pages.
func (e *Engine) CompressedBytes() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.compBytes
}

// Lines is the ingested line count.
func (e *Engine) Lines() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lineCount
}

// DataPages is the number of data pages written.
func (e *Engine) DataPages() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.dataPages)
}

// Segments snapshots the engine's segment-store seal state.
func (e *Engine) Segments() storage.SegmentStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Stats()
}

// SealSegments flushes buffered lines and seals the active segment,
// making every accepted line immutable and serializable (WriteSegments).
func (e *Engine) SealSegments() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.flushLocked(); err != nil {
		return err
	}
	e.store.Seal()
	return nil
}

// CompressionRatio is raw/compressed over all ingested data.
func (e *Engine) CompressionRatio() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.compBytes == 0 {
		return 0
	}
	return float64(e.rawBytes) / float64(e.compBytes)
}

// IndexMemoryFootprint reports the inverted index's resident bytes under
// the engine lock (the index itself is single-writer).
func (e *Engine) IndexMemoryFootprint() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.MemoryFootprint()
}

// ContentStats is one consistent view of an engine's content accounting.
type ContentStats struct {
	Lines            uint64
	RawBytes         uint64
	CompressedBytes  uint64
	DataPages        int
	IndexMemoryBytes int
	Segments         storage.SegmentStats
}

// ContentStats reads every content counter under one read lock, so no
// flush lands between two of them. Each read is O(1).
func (e *Engine) ContentStats() ContentStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return ContentStats{
		Lines:            e.lineCount,
		RawBytes:         e.rawBytes,
		CompressedBytes:  e.compBytes,
		DataPages:        len(e.dataPages),
		IndexMemoryBytes: e.ix.MemoryFootprint(),
		Segments:         e.store.Stats(),
	}
}

// Ingest appends log lines (without trailing newlines) to the store.
// Lines are buffered and flushed page-by-page; call Flush (or TakeSnapshot)
// to force out the final partial page.
func (e *Engine) Ingest(lines [][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ingestLocked(lines)
}

// CheckLines returns ErrLineTooLong for the first line over MaxLineBytes.
// Ingest runs it over the whole batch before buffering any line, so a
// rejected batch leaves no line of it behind; the router runs it before
// striping a batch across shards.
func (e *Engine) CheckLines(lines [][]byte) error {
	for _, line := range lines {
		if len(line) > e.cfg.MaxLineBytes {
			return fmt.Errorf("%w: %d bytes", ErrLineTooLong, len(line))
		}
	}
	return nil
}

func (e *Engine) ingestLocked(lines [][]byte) error {
	if err := e.CheckLines(lines); err != nil {
		return err
	}
	for _, line := range lines {
		e.pending = append(e.pending, line...)
		e.pending = append(e.pending, '\n')
		e.pendingEnds = append(e.pendingEnds, len(e.pending))
		// Flush when the batch should roughly fill a page at the current
		// compression ratio estimate.
		if float64(len(e.pending)) >= e.ratioGuess*float64(storage.PageSize) {
			if err := e.flushPending(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush writes any buffered lines into a final (possibly underfull) data
// page and flushes the index.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

func (e *Engine) flushLocked() error {
	for len(e.pending) > 0 {
		if err := e.flushPending(); err != nil {
			return err
		}
	}
	if err := e.ix.Flush(); err != nil {
		return err
	}
	// Flush is the visibility boundary for queries, so it is also the cache
	// coherence point: drop every cached decompressed page. Data pages are
	// append-only, so this is conservative, but it guarantees no query ever
	// observes a stale page even if storage is rewritten (repair).
	if e.cache != nil {
		e.cache.InvalidateAll()
	}
	e.met.flushes.Inc()
	e.met.indexMemoryBytes.Set(float64(e.ix.MemoryFootprint()))
	return nil
}

// TakeSnapshot flushes and records a time boundary for range queries
// (§6.3) in the segment store, which persists it with the data pages.
func (e *Engine) TakeSnapshot(ts time.Time) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.flushLocked(); err != nil {
		return err
	}
	e.store.Mark(ts)
	return nil
}

// flushPending writes the largest prefix of pending lines that fits a
// page and indexes its tokens. It compresses pending once, recording a
// cut at every line end, then replays the page-fit search on the recorded
// sizes: start from every pending line and shrink the count in proportion
// to the overflow, always making progress. A cut is byte-identical to
// compressing just that prefix, so the pages are the ones compressing
// each attempt anew would write.
func (e *Engine) flushPending() error {
	if len(e.pendingEnds) == 0 {
		return nil
	}
	start := time.Now()
	comp, cuts := e.codec.CompressLines(e.compBuf[:0], e.pending, e.cuts[:0])
	e.compBuf, e.cuts = comp, cuts
	n := len(e.pendingEnds)
	cut := e.cutAfter(n)
	for cut.Size() > storage.PageSize && n > 1 {
		n = max(n*storage.PageSize/cut.Size(), 1)
		cut = e.cutAfter(n)
	}
	if cut.Size() > storage.PageSize {
		return fmt.Errorf("%w: single line compresses to %d bytes", ErrLineTooLong, cut.Size())
	}
	comp = lzah.Cut(comp, cut)
	compressTime := time.Since(start)
	e.profile.CompressTime += compressTime
	id, err := e.store.Append(comp)
	if err != nil {
		return err
	}
	e.dataPages = append(e.dataPages, id)
	e.profile.PagesWritten++
	raw := cut.End
	indexStart := time.Now()
	lines, tokens, err := e.indexPage(e.pending[:raw], id)
	if err != nil {
		return err
	}
	indexTime := time.Since(indexStart)
	e.profile.IndexTime += indexTime
	e.profile.TokensIndexed += uint64(tokens)
	e.rawBytes += uint64(raw)
	e.compBytes += uint64(len(comp))
	e.lineCount += uint64(lines)
	// One counter op per aggregate, once per page — ingest lines never pay
	// per-line instrumentation.
	e.met.ingestPages.Inc()
	e.met.ingestLines.Add(float64(lines))
	e.met.ingestRawBytes.Add(float64(raw))
	e.met.ingestCompBytes.Add(float64(len(comp)))
	e.met.ingestTokens.Add(float64(tokens))
	e.met.ingestCompressSec.Add(compressTime.Seconds())
	e.met.ingestIndexSec.Add(indexTime.Seconds())
	// Update the ratio estimate for future batch sizing.
	if len(comp) > 0 {
		e.ratioGuess = 0.5*e.ratioGuess + 0.5*float64(raw)/float64(len(comp))
		if e.ratioGuess < 0.5 {
			e.ratioGuess = 0.5
		}
	}
	// Drop the page's lines from the buffer.
	e.pending = e.pending[:copy(e.pending, e.pending[raw:])]
	e.pendingEnds = e.pendingEnds[:copy(e.pendingEnds, e.pendingEnds[n:])]
	for i := range e.pendingEnds {
		e.pendingEnds[i] -= raw
	}
	return nil
}

// cutAfter returns the recorded cut at the end of the n-th pending line.
// There is a cut at every newline, so it is cuts[n-1] unless an earlier
// line holds an embedded newline; a binary search over the ends finds it
// either way.
func (e *Engine) cutAfter(n int) lzah.LineCut {
	end := e.pendingEnds[n-1]
	lo, hi := 0, len(e.cuts)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.cuts[m].End < end {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return e.cuts[lo]
}

// Profile returns the accumulated ingest-stage profile.
func (e *Engine) Profile() IngestProfile {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.profile
}

// Export streams the entire store's decompressed text to w, modeling §3's
// second accelerator configuration: pages are decompressed near storage
// and the decompressed text crosses the PCIe link. The simulated time is
// therefore bounded by the slower of the internal compressed stream and
// the external decompressed stream.
func (e *Engine) Export(w io.Writer) (ExportResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res ExportResult
	if err := e.flushLocked(); err != nil {
		return res, err
	}
	start := time.Now()
	st := e.getScanState()
	defer e.putScanState(st)
	// The scan datapath with the sink in the evaluator's place.
	forward := func(_ int, text []byte, _ *filter.TokenizedBlock) (_, _ [][]byte, err error) {
		n, err := w.Write(text)
		res.RawBytes += uint64(n)
		return nil, nil, err
	}
	if _, err := e.scanPages(nil, st, e.dataPages, false, 0, scanStrategy{link: storage.Internal, workers: 1, eval: forward}); err != nil {
		return res, err
	}
	internal := e.dev.TransferTime(storage.Internal, e.compBytes)
	external := e.dev.TransferTime(storage.External, res.RawBytes)
	if internal > external {
		res.SimElapsed = internal
	} else {
		res.SimElapsed = external
	}
	res.WallElapsed = time.Since(start)
	return res, nil
}

// ExportResult reports a full-store export.
type ExportResult struct {
	// RawBytes written to the sink.
	RawBytes uint64
	// SimElapsed is the simulated transfer time (§3 decompress-and-forward
	// mode: max of internal compressed and external decompressed streams).
	SimElapsed time.Duration
	// WallElapsed is the measured host time.
	WallElapsed time.Duration
}
