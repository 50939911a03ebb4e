package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mithrilog/internal/core"
	"mithrilog/internal/filter"
	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
)

// pageData fabricates a cache entry whose MemSize is exactly n bytes
// (text only, no token stream), keeping the byte-bound arithmetic in the
// LRU tests direct.
func pageData(n int, fill byte) *filter.TokenizedBlock {
	d := make([]byte, n)
	for i := range d {
		d[i] = fill
	}
	return &filter.TokenizedBlock{Block: d}
}

func TestPageCacheLRU(t *testing.T) {
	c := NewPageCache(250)
	c.Put(1, pageData(100, 'a'))
	c.Put(2, pageData(100, 'b'))
	// Touch 1 so 2 is the LRU victim.
	if _, ok := c.Get(1); !ok {
		t.Fatal("page 1 missing")
	}
	c.Put(3, pageData(100, 'c'))
	if _, ok := c.Get(2); ok {
		t.Fatal("page 2 should have been evicted (LRU)")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("page 1 evicted despite recent use")
	}
	if got, ok := c.Get(3); !ok || got.Block[0] != 'c' {
		t.Fatalf("page 3 lost or corrupt: %v %q", ok, got.Block[:1])
	}
	if c.Len() != 2 || c.Bytes() != 200 {
		t.Fatalf("occupancy %d pages / %d bytes, want 2 / 200", c.Len(), c.Bytes())
	}
	hits, misses, evictions, invalidations := c.Stats()
	if hits != 3 || misses != 1 || evictions != 1 || invalidations != 0 {
		t.Fatalf("stats %d/%d/%d/%d, want 3/1/1/0", hits, misses, evictions, invalidations)
	}
	c.InvalidateAll()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("invalidate left residue")
	}
	if _, _, _, inv := c.Stats(); inv != 1 {
		t.Fatal("invalidation not counted")
	}
}

func TestPageCacheRejectsOversized(t *testing.T) {
	c := NewPageCache(64)
	c.Put(1, pageData(65, 'x'))
	if c.Len() != 0 {
		t.Fatal("oversized page retained")
	}
	c.Put(2, nil)
	c.Put(3, &filter.TokenizedBlock{})
	if c.Len() != 0 {
		t.Fatal("empty page retained")
	}
}

// TestCacheBytesAreHeapBytes holds the cache's byte accounting to the
// allocator's: filling the cache with a dataset's tokenized pages must
// grow the live heap by what Bytes() then reports (Σ TokenizedBlock.MemSize)
// to within 10 %. The slack covers size-class rounding and the cache's own
// map and list nodes; a representation charged by len instead of cap, or a
// backing array MemSize forgets, does not fit in it.
func TestCacheBytesAreHeapBytes(t *testing.T) {
	cache := NewPageCache(256 << 20)
	eng := core.NewEngine(core.Config{PageCache: cache})
	if err := eng.Ingest(loggen.Generate(loggen.BGL2, 40000, 0).Lines); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	fill := func() {
		if _, err := eng.Search(query.MustParse(`FATAL`), core.SearchOptions{NoIndex: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Two collections empty the scan-state pool (and its victim cache), so
	// both readings see the same heap but for the cached pages.
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	fill() // first-use growth (pipelines, decoders) happens here
	cache.InvalidateAll()
	before := liveHeap()
	fill()
	grown := float64(liveHeap() - before)
	charged := float64(cache.Bytes())
	if cache.Len() == 0 || charged < 4<<20 {
		t.Fatalf("cache holds %d pages, %.0f bytes: too little to measure", cache.Len(), charged)
	}
	t.Logf("heap grew %.0f, cache charges %.0f, ratio %.3f", grown, charged, grown/charged)
	if ratio := grown / charged; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("filling the cache grew the live heap by %.0f bytes; the cache charges %.0f (heap/charged = %.3f, want within 10%%)",
			grown, charged, ratio)
	}
	runtime.KeepAlive(eng)
}

// buildSched assembles an engine (with cache) and scheduler over n
// generated lines, every one containing the token "needle".
func buildSched(t *testing.T, n int, cfg Config) (*Scheduler, *PageCache) {
	t.Helper()
	cache := NewPageCache(64 << 20)
	eng := core.NewEngine(core.Config{PageCache: cache})
	if err := eng.Ingest(needleLines(0, n)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	return New(eng, cfg), cache
}

func needleLines(start, n int) [][]byte {
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("needle event worker%d seq %d", (start+i)%7, start+i))
	}
	return lines
}

func TestSchedulerQueueFull(t *testing.T) {
	s, _ := buildSched(t, 500, Config{MaxInFlight: 1, QueueDepth: 1})
	// Occupy the single execution slot.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	waiterErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		// Fills the one queue position, then blocks until canceled.
		_, err := s.Search(ctx, query.MustParse(`needle`), core.SearchOptions{})
		waiterErr <- err
	}()
	// Wait until the waiter is counted.
	for s.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Search(context.Background(), query.MustParse(`needle`), core.SearchOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	cancel()
	wg.Wait()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query should report cancellation, got %v", err)
	}
}

func TestSchedulerTimeout(t *testing.T) {
	s, _ := buildSched(t, 500, Config{MaxInFlight: 1, Timeout: 20 * time.Millisecond})
	s.slots <- struct{}{} // pin the slot so the query times out in queue
	defer func() { <-s.slots }()
	_, err := s.Search(context.Background(), query.MustParse(`needle`), core.SearchOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
}

// TestQueueTimeAccounting pins the arbiter model: a sole query pays no
// queueing, and a query sharing the device with k-1 residents pays
// busy×(k−1), folded into SimElapsed.
func TestQueueTimeAccounting(t *testing.T) {
	s, _ := buildSched(t, 2000, Config{})
	q := query.MustParse(`needle`)
	solo, err := s.Search(context.Background(), q, core.SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if solo.QueueTime != 0 {
		t.Fatalf("sole query charged %v of queueing", solo.QueueTime)
	}

	// Simulate one other resident query for the duration of this one.
	s.arb.Enter()
	defer s.arb.Exit()
	shared, err := s.Search(context.Background(), q, core.SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	busy := shared.StreamTime
	if shared.FilterTime > busy {
		busy = shared.FilterTime
	}
	if shared.QueueTime != busy {
		t.Fatalf("with 2 sharers queue time = %v, want the device-busy time %v", shared.QueueTime, busy)
	}
	if shared.SimElapsed <= solo.SimElapsed {
		t.Fatalf("contended SimElapsed %v not above solo %v", shared.SimElapsed, solo.SimElapsed)
	}
}

// TestConcurrentSearchIngestStress hammers one scheduler with mixed
// readers and a writer (run it under -race): reader invariants are
// monotonic visibility — a search started after k lines were flushed
// reports at least k matches, and never more than were ingested by the
// time it returned — which a stale cached page surviving an ingest-flush
// invalidation would violate (the final exact-count checks would, too).
func TestConcurrentSearchIngestStress(t *testing.T) {
	const (
		readers   = 6
		batches   = 40
		batchSize = 100
	)
	s, cache := buildSched(t, batchSize, Config{MaxInFlight: 2 * readers})
	eng := s.Engine()
	q := query.MustParse(`needle`)

	var flushed atomic.Int64  // lines visible in storage
	var ingested atomic.Int64 // lines handed to Ingest
	flushed.Store(batchSize)
	ingested.Store(batchSize)

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for b := 1; b < batches; b++ {
			start := int(ingested.Load())
			ingested.Add(batchSize)
			if err := eng.Ingest(needleLines(start, batchSize)); err != nil {
				errs <- err
				return
			}
			if b%4 == 0 {
				if err := eng.Flush(); err != nil {
					errs <- err
					return
				}
			}
			// Lines are visible once flushed — explicitly above, or by
			// any search's implicit flush; conservatively publish only
			// what an explicit flush guaranteed.
			if b%4 == 0 {
				flushed.Store(ingested.Load())
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lower := flushed.Load()
				res, err := s.Search(context.Background(), q, core.SearchOptions{NoIndex: true})
				upper := ingested.Load()
				if err != nil {
					errs <- fmt.Errorf("reader: %w", err)
					return
				}
				if int64(res.Matches) < lower || int64(res.Matches) > upper {
					errs <- fmt.Errorf("reader saw %d matches outside [%d, %d]", res.Matches, lower, upper)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent exactness: everything ingested must now be visible, from
	// flash and — identically — from the warmed cache.
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	total := int(ingested.Load())
	cold, err := s.Search(context.Background(), q, core.SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Matches != total {
		t.Fatalf("post-stress count %d, want %d", cold.Matches, total)
	}
	warm, err := s.Search(context.Background(), q, core.SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Matches != total {
		t.Fatalf("cached post-stress count %d, want %d", warm.Matches, total)
	}
	if warm.CachedPages == 0 {
		t.Fatal("warm scan hit no cached pages")
	}
	hits, _, _, invalidations := cache.Stats()
	if hits == 0 {
		t.Fatal("stress run never hit the cache")
	}
	if invalidations == 0 {
		t.Fatal("ingest flushes never invalidated the cache")
	}
}

// TestCacheInvalidationOnFlush is the targeted stale-page check: a page
// cached before a flush must not serve a later query, because the flush
// boundary invalidates the cache wholesale.
func TestCacheInvalidationOnFlush(t *testing.T) {
	s, cache := buildSched(t, 300, Config{})
	q := query.MustParse(`needle`)
	if _, err := s.Search(context.Background(), q, core.SearchOptions{NoIndex: true}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("first scan cached nothing")
	}
	if err := s.Engine().Ingest(needleLines(300, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Engine().Flush(); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("flush left %d cached pages", cache.Len())
	}
	res, err := s.Search(context.Background(), q, core.SearchOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 350 {
		t.Fatalf("post-flush scan counted %d, want 350", res.Matches)
	}
	if res.CachedPages != 0 {
		t.Fatalf("post-flush scan served %d pages from an invalidated cache", res.CachedPages)
	}
}

// TestSearchRegexAdmission exercises the regex path through the
// scheduler (slot accounting must balance).
func TestSearchRegexAdmission(t *testing.T) {
	s, _ := buildSched(t, 200, Config{MaxInFlight: 2})
	res, err := s.SearchRegex(context.Background(), `needle`, core.RegexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 200 {
		t.Fatalf("regex matched %d, want 200", res.Matches)
	}
	if got := len(s.slots); got != 0 {
		t.Fatalf("%d slots leaked", got)
	}
}
