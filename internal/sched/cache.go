package sched

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mithrilog/internal/filter"
	"mithrilog/internal/obs"
	"mithrilog/internal/storage"
)

// PageCache is the byte-bounded LRU implementation of core.PageCache: a
// model of DRAM on the accelerator side of the device holding decompressed
// data pages together with the spans of their tokens. A hit saves the
// internal-link flash read, the LZAH decompression, and the tokenization —
// the cached page re-enters the filter pipeline directly at the hash
// filters, which is where repeated scans of hot pages spend their time;
// the cross-query reuse the single-query engine cannot exploit.
//
// Entries are whole tokenized pages keyed by storage.PageID. Eviction is
// strict LRU by total resident bytes (the capacity of the text, span and
// line-end arrays; see filter.TokenizedBlock.MemSize). InvalidateAll
// (called by the engine at every flush boundary) empties the cache. All
// methods are safe for concurrent use; Get returns the cached block
// itself, which callers must treat as read-only (the engine's scan path
// only reads).
type PageCache struct {
	mu       sync.Mutex
	maxBytes int64 // immutable after New (read before the lock in Put)
	curBytes int64 // guarded by mu
	// ll is the recency list (front = most recently used). guarded by mu
	ll    *list.List
	items map[storage.PageID]*list.Element // guarded by mu

	hits, misses, evictions, invalidations atomic.Uint64
}

type cacheEntry struct {
	id storage.PageID
	tb *filter.TokenizedBlock
}

// NewPageCache creates a cache bounded to maxBytes of resident page data.
// maxBytes must be positive; a single page larger than the bound is simply
// never retained.
func NewPageCache(maxBytes int64) *PageCache {
	return &PageCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[storage.PageID]*list.Element),
	}
}

// Get returns the cached tokenized page, promoting it to most recently
// used. The returned block is shared and must not be modified.
func (c *PageCache) Get(id storage.PageID) (*filter.TokenizedBlock, bool) {
	c.mu.Lock()
	el, ok := c.items[id]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	tb := el.Value.(*cacheEntry).tb
	c.mu.Unlock()
	c.hits.Add(1)
	return tb, true
}

// Put inserts a tokenized page, taking ownership of the block. Inserting
// an already-present page promotes the existing entry (concurrent queries
// miss-and-decode the same page; the first insert wins and later copies
// are dropped — both hold identical content). Pages wider than the byte
// bound are not retained.
func (c *PageCache) Put(id storage.PageID, tb *filter.TokenizedBlock) {
	if tb == nil {
		return
	}
	size := tb.MemSize()
	if size == 0 || size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[id] = c.ll.PushFront(&cacheEntry{id: id, tb: tb})
	c.curBytes += size
	for c.curBytes > c.maxBytes {
		c.evictOldest()
	}
}

// evictOldest drops the LRU entry; the caller holds c.mu.
func (c *PageCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.id)
	c.curBytes -= ent.tb.MemSize()
	c.evictions.Add(1)
}

// InvalidateAll empties the cache. The engine calls it on every flush
// boundary so no query can observe pages inconsistent with storage.
func (c *PageCache) InvalidateAll() {
	c.mu.Lock()
	c.ll.Init()
	c.items = make(map[storage.PageID]*list.Element)
	c.curBytes = 0
	c.mu.Unlock()
	c.invalidations.Add(1)
}

// Len reports the number of cached pages.
func (c *PageCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the resident bytes currently held (Σ MemSize).
func (c *PageCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// Stats reports the cache's lifetime counters (hits, misses, evictions,
// invalidations).
func (c *PageCache) Stats() (hits, misses, evictions, invalidations uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), c.invalidations.Load()
}

// RegisterMetrics publishes the cache's counters and occupancy gauges into
// reg (see OBSERVABILITY.md). Safe to call once per registry; the obs
// layer's get-or-create semantics make duplicate names from a second cache
// on the same registry a programming error, consistent with the rest of
// the module.
func (c *PageCache) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("mithrilog_cache_hits_total",
		"Decompressed-page cache hits (page served without flash read, decompression, or tokenization).",
		nil, func() float64 { return float64(c.hits.Load()) })
	reg.CounterFunc("mithrilog_cache_misses_total",
		"Decompressed-page cache misses (page read, decompressed, and tokenized from flash).",
		nil, func() float64 { return float64(c.misses.Load()) })
	reg.CounterFunc("mithrilog_cache_evictions_total",
		"Pages evicted from the decompressed-page cache by the LRU byte bound.",
		nil, func() float64 { return float64(c.evictions.Load()) })
	reg.CounterFunc("mithrilog_cache_invalidations_total",
		"Whole-cache invalidations at ingest flush boundaries.",
		nil, func() float64 { return float64(c.invalidations.Load()) })
	reg.GaugeFunc("mithrilog_cache_bytes",
		"Resident bytes (page text, token spans and line ends, by backing-array capacity) in the page cache.",
		nil, func() float64 { return float64(c.Bytes()) })
	reg.GaugeFunc("mithrilog_cache_pages",
		"Pages currently resident in the page cache.",
		nil, func() float64 { return float64(c.Len()) })
}
