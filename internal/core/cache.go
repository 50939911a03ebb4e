package core

import (
	"mithrilog/internal/filter"
	"mithrilog/internal/storage"
)

// PageCache caches decompressed, tokenized data pages across queries —
// each a filter.TokenizedBlock, its tokens dictionary-coded so that a hit
// probes each distinct token of the page once per query. The
// reproduction models it as DRAM on the accelerator side of the device,
// fronting the flash channels and holding the tokenizer stage's output: a
// hit skips the internal-link flash read, the LZAH decompression, and the
// tokenization for that page, re-entering the pipeline directly at the
// hash filters — which is where repeated scans of hot pages spend their
// time. The near-storage (offloaded) scan path and both regex paths
// (prefiltered and full-scan) consult and populate it; the host-side
// token-query fallback streams compressed pages over the external link
// and never sees device DRAM.
//
// Contract:
//
//   - Get returns the cached tokenized page and true, or nil and false.
//     The returned block is shared between concurrent queries and must be
//     treated as read-only.
//   - Put hands ownership of the block to the cache; the caller must not
//     modify it afterwards. Put after a failed read or decompress must not
//     happen — the cache only ever holds successfully decoded pages, so a
//     device fault surfaces to exactly the query that issued the read.
//   - InvalidateAll empties the cache. The engine calls it on every
//     explicit flush boundary (Flush, TakeSnapshot and the persistence
//     calls that flush): data pages are append-only, so cached pages
//     cannot go stale through ingest alone, but an explicit flush is the
//     point where callers may observe (and tests may mutate) storage, and
//     a conservative drop keeps every downstream read coherent with the
//     device. The seal a query runs over pending lines only appends pages,
//     so it keeps the cache.
//
// All methods must be safe for concurrent use. internal/sched provides the
// byte-bounded LRU implementation; a nil PageCache disables caching.
type PageCache interface {
	Get(id storage.PageID) (*filter.TokenizedBlock, bool)
	Put(id storage.PageID, tb *filter.TokenizedBlock)
	InvalidateAll()
}
