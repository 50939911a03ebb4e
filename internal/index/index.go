// Package index implements MithriLog's in-storage inverted index (§6): a
// probabilistic in-memory hash table indexed by two hash functions, backed
// by a linked list of height-two trees in storage pages.
//
// The in-memory table stores no tokens — only, per bucket, a small buffer
// of recent data page addresses, the storage reference of the newest tree
// root, and a page counter. Two hash functions spread hot tokens: each
// (token, page) insertion goes to whichever of the token's two buckets has
// seen fewer pages (§6.2), and queries read both buckets. Because buckets
// are shared between tokens, lookups over-approximate: they may return
// pages of other tokens hashing to the same buckets, which is harmless —
// the downstream filter engine discards non-matching lines (§6.2).
//
// In storage, each bucket owns a linked list of root nodes (in index
// pages); a root points at up to RootEntries leaf nodes (in leaf pages),
// each holding up to LeafEntries data page addresses. One latency-bound
// root visit therefore yields RootEntries×LeafEntries (256) data page
// addresses fetched in parallel, which saturates the device while keeping
// the per-bucket ingest buffer at most LeafEntries addresses (§6.1). The
// buffers grow on demand, so an untouched bucket costs only its table
// entry.
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"mithrilog/internal/hwsim"
	"mithrilog/internal/storage"
)

// Default geometry from the prototype (§6.1).
const (
	DefaultBuckets     = 1 << 16
	DefaultLeafEntries = hwsim.IndexLeafEntries
	DefaultRootEntries = hwsim.IndexRootEntries
)

// Node buffer growth schedule: a bucket's leaf buffer starts at leafStart
// entries and its root buffer, made at the bucket's first leaf flush, at
// rootStart; each jumps once to its full node size when it fills.
const (
	leafStart = 4
	rootStart = 2
)

// nilPage marks an absent page reference.
const nilPage = ^storage.PageID(0)

// ErrTokenEmpty reports an Add or Lookup with an empty token.
var ErrTokenEmpty = errors.New("index: empty token")

// Params sizes the index.
type Params struct {
	// Buckets is the in-memory hash table size (default 65536).
	Buckets int
	// LeafEntries is the number of data page addresses per leaf node
	// (default 16).
	LeafEntries int
	// RootEntries is the number of leaf references per root node
	// (default 16).
	RootEntries int
	// Seed perturbs the two hash functions.
	Seed uint64
}

func (p Params) withDefaults() Params {
	if p.Buckets <= 0 {
		p.Buckets = DefaultBuckets
	}
	if p.LeafEntries <= 0 {
		p.LeafEntries = DefaultLeafEntries
	}
	if p.RootEntries <= 0 {
		p.RootEntries = DefaultRootEntries
	}
	return p
}

// nodeRef addresses a node inside a storage page.
type nodeRef struct {
	page storage.PageID
	slot uint16
}

var nilRef = nodeRef{page: nilPage}

func (r nodeRef) isNil() bool { return r.page == nilPage }

// bucket is one in-memory hash table entry.
type bucket struct {
	// leafBuf holds data page addresses not yet flushed into a leaf node.
	leafBuf []storage.PageID
	// rootBuf holds leaf node references not yet flushed into a root node.
	rootBuf []nodeRef
	// head is the newest root node in storage (list head), or nil.
	head nodeRef
	// count is the total number of data pages pushed into this bucket,
	// used for the two-hash balancing decision.
	count uint64
}

// Index is the inverted index. It is not safe for concurrent use; the
// ingest path is single-writer by design (append-only logs).
type Index struct {
	params  Params
	dev     *storage.Device
	buckets []bucket

	leafNodeSize int
	leafSlots    int
	rootNodeSize int
	rootSlots    int

	// Open (partially filled) storage pages, kept in memory until full.
	openLeafID    storage.PageID
	openLeafBuf   []byte
	openLeafUsed  int
	openIndexID   storage.PageID
	openIndexBuf  []byte
	openIndexUsed int

	stats Stats

	// resident is the byte count MemoryFootprint reports. It grows only
	// where a buffer is allocated or grown (New, reserveBuffers, pageBuf),
	// by the capacity added, so it equals a walk over every bucket's
	// buffer capacities without making one.
	resident int

	// AddPage scratch: each token's bucket pair, and the sum of the counts
	// its touch pass loads (kept so the loads are not dead code).
	pairs   []bucketPair
	touched uint64
}

// Stats describes index activity and footprint.
type Stats struct {
	Adds       uint64 // (token, page) insertions
	LeafNodes  uint64 // leaf nodes written
	RootNodes  uint64 // root nodes written
	LeafPages  uint64 // leaf pages flushed
	IndexPages uint64 // index pages flushed
}

// New builds an empty index on the device.
func New(dev *storage.Device, p Params) *Index {
	p = p.withDefaults()
	ix := &Index{
		params:   p,
		dev:      dev,
		buckets:  make([]bucket, p.Buckets),
		resident: p.Buckets * (24 + 8), // a bucket's header and its table slot
	}
	for i := range ix.buckets {
		ix.buckets[i].head = nilRef
	}
	ix.leafNodeSize = 2 + 4*p.LeafEntries
	ix.leafSlots = storage.PageSize / ix.leafNodeSize
	ix.rootNodeSize = 2 + 6*p.RootEntries + 6
	ix.rootSlots = storage.PageSize / ix.rootNodeSize
	ix.openLeafID = nilPage
	ix.openIndexID = nilPage
	return ix
}

// Params returns the (defaulted) parameters.
func (ix *Index) Params() Params { return ix.params }

// Stats returns activity counters.
func (ix *Index) Stats() Stats { return ix.stats }

// MemoryFootprint estimates the resident bytes of the in-memory structures
// (the quantity §6 keeps near 256 MB for the full-scale prototype): every
// bucket's header, table slot and node buffers, plus the open leaf and
// index pages. It is a counter read, O(1) whatever the table size.
func (ix *Index) MemoryFootprint() int { return ix.resident }

// hash returns the token's two bucket indices.
func (ix *Index) hash(token string) (int, int) { return hashToken(ix, token) }

// hashToken is the shared bucket-pair hash over string and []byte token
// views, so the ingest path never materializes a string just to hash it.
func hashToken[T string | []byte](ix *Index, token T) (int, int) {
	h1 := uint64(14695981039346656037) ^ ix.params.Seed
	for i := 0; i < len(token); i++ {
		h1 ^= uint64(token[i])
		h1 *= 1099511628211
	}
	h2 := h1*0x9e3779b97f4a7c15 + 0x165667b19e3779f9
	h1 = fmix(h1)
	h2 = fmix(h2)
	n := uint64(ix.params.Buckets)
	a, b := int(h1%n), int(h2%n)
	return a, b
}

func fmix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add records that token appears in the given data page. Callers must
// deduplicate (token, page) pairs — the ingest path calls Add once per
// distinct token per page.
func (ix *Index) Add(token string, page storage.PageID) error {
	if token == "" {
		return ErrTokenEmpty
	}
	a, b := ix.hash(token)
	// Push into the bucket with fewer pages so far (§6.2).
	target := a
	if ix.buckets[b].count < ix.buckets[a].count {
		target = b
	}
	ix.stats.Adds++
	return ix.push(target, page)
}

// bucketPair is one token's two candidate buckets.
type bucketPair struct{ a, b int }

// AddPage records that each of toks — one page's distinct tokens, as byte
// views — appears in page. The result is identical to calling Add for
// each token in order. It first hashes every token and loads both of its
// buckets' counts in one pass of independent loads, so the cache misses
// into the bucket table overlap instead of each waiting behind the
// previous token's push; then it makes Add's sequential count-compare and
// push, in order, since a push changes the counts later tokens compare.
//
//mithrilint:hotpath
func (ix *Index) AddPage(toks [][]byte, page storage.PageID) error {
	if len(toks) == 0 {
		return nil
	}
	pairs := ix.pairs[:0]
	for _, tok := range toks {
		if len(tok) == 0 {
			return ErrTokenEmpty
		}
		a, b := hashToken(ix, tok)
		pairs = append(pairs, bucketPair{a, b})
	}
	ix.pairs = pairs
	var touched uint64
	for _, p := range pairs {
		touched += ix.buckets[p.a].count + ix.buckets[p.b].count
	}
	ix.touched = touched
	for _, p := range pairs {
		target := p.a
		if ix.buckets[p.b].count < ix.buckets[p.a].count {
			target = p.b
		}
		ix.stats.Adds++
		if err := ix.push(target, page); err != nil {
			return err
		}
	}
	return nil
}

func (ix *Index) push(bi int, page storage.PageID) error {
	b := &ix.buckets[bi]
	b.count++
	b.leafBuf = reserveBuffers(ix, b.leafBuf, leafStart, ix.params.LeafEntries, 4)
	b.leafBuf = append(b.leafBuf, page)
	if len(b.leafBuf) >= ix.params.LeafEntries {
		if err := ix.flushLeaf(b); err != nil {
			return err
		}
	}
	return nil
}

// reserveBuffers returns a node buffer with room for one more entry of
// entryBytes resident bytes: a bucket with no buffer gets one of start
// entries, and a full one is replaced by one of full entries (the node
// size). The capacity added is counted resident. push (leaf buffers) and
// flushLeaf (root buffers) call it before every append, so there is one
// growth and accounting path. Growing on demand, unlike §6.1's up-front
// reservation, lets a bucket that holds a few pages cost a few entries;
// nodes are still written only when full (DESIGN.md).
func reserveBuffers[T storage.PageID | nodeRef](ix *Index, buf []T, start, full, entryBytes int) []T {
	if len(buf) == cap(buf) {
		n := full
		if cap(buf) == 0 {
			n = min(start, full)
		}
		grown := make([]T, len(buf), n)
		copy(grown, buf)
		ix.resident += (n - cap(buf)) * entryBytes
		return grown
	}
	return buf
}

// flushLeaf writes the bucket's leaf buffer as a leaf node and registers
// it in the bucket's root buffer, flushing a root node if that fills too.
func (ix *Index) flushLeaf(b *bucket) error {
	if len(b.leafBuf) == 0 {
		return nil
	}
	ref, err := ix.appendLeafNode(b.leafBuf)
	if err != nil {
		return err
	}
	b.leafBuf = b.leafBuf[:0]
	b.rootBuf = reserveBuffers(ix, b.rootBuf, rootStart, ix.params.RootEntries, 8)
	b.rootBuf = append(b.rootBuf, ref)
	if len(b.rootBuf) >= ix.params.RootEntries {
		return ix.flushRoot(b)
	}
	return nil
}

// flushRoot writes the bucket's root buffer as a root node linked to the
// previous head.
func (ix *Index) flushRoot(b *bucket) error {
	if len(b.rootBuf) == 0 {
		return nil
	}
	ref, err := ix.appendRootNode(b.rootBuf, b.head)
	if err != nil {
		return err
	}
	b.rootBuf = b.rootBuf[:0]
	b.head = ref
	return nil
}

// appendLeafNode serializes a leaf node into the open leaf page.
func (ix *Index) appendLeafNode(pages []storage.PageID) (nodeRef, error) {
	if ix.openLeafID == nilPage || ix.openLeafUsed >= ix.leafSlots {
		if err := ix.rotateLeafPage(); err != nil {
			return nilRef, err
		}
	}
	slot := ix.openLeafUsed
	off := slot * ix.leafNodeSize
	buf := ix.openLeafBuf[off : off+ix.leafNodeSize]
	binary.LittleEndian.PutUint16(buf, uint16(len(pages)))
	for i, p := range pages {
		binary.LittleEndian.PutUint32(buf[2+4*i:], uint32(p))
	}
	ix.openLeafUsed++
	ix.stats.LeafNodes++
	return nodeRef{page: ix.openLeafID, slot: uint16(slot)}, nil
}

// appendRootNode serializes a root node into the open index page.
func (ix *Index) appendRootNode(leaves []nodeRef, next nodeRef) (nodeRef, error) {
	if ix.openIndexID == nilPage || ix.openIndexUsed >= ix.rootSlots {
		if err := ix.rotateIndexPage(); err != nil {
			return nilRef, err
		}
	}
	slot := ix.openIndexUsed
	off := slot * ix.rootNodeSize
	buf := ix.openIndexBuf[off : off+ix.rootNodeSize]
	binary.LittleEndian.PutUint16(buf, uint16(len(leaves)))
	for i, r := range leaves {
		binary.LittleEndian.PutUint32(buf[2+6*i:], uint32(r.page))
		binary.LittleEndian.PutUint16(buf[2+6*i+4:], r.slot)
	}
	tail := 2 + 6*ix.params.RootEntries
	binary.LittleEndian.PutUint32(buf[tail:], uint32(next.page))
	binary.LittleEndian.PutUint16(buf[tail+4:], next.slot)
	ix.openIndexUsed++
	ix.stats.RootNodes++
	return nodeRef{page: ix.openIndexID, slot: uint16(slot)}, nil
}

func (ix *Index) rotateLeafPage() error {
	if ix.openLeafID != nilPage {
		if err := ix.dev.Write(ix.openLeafID, ix.openLeafBuf); err != nil {
			return err
		}
		ix.stats.LeafPages++
	}
	id, err := ix.dev.Alloc()
	if err != nil {
		return err
	}
	ix.openLeafID = id
	ix.openLeafBuf = ix.pageBuf(ix.openLeafBuf)
	ix.openLeafUsed = 0
	return nil
}

func (ix *Index) rotateIndexPage() error {
	if ix.openIndexID != nilPage {
		if err := ix.dev.Write(ix.openIndexID, ix.openIndexBuf); err != nil {
			return err
		}
		ix.stats.IndexPages++
	}
	id, err := ix.dev.Alloc()
	if err != nil {
		return err
	}
	ix.openIndexID = id
	ix.openIndexBuf = ix.pageBuf(ix.openIndexBuf)
	ix.openIndexUsed = 0
	return nil
}

// pageBuf returns an open page's buffer zeroed for reuse, or, on first
// use, a new one counted resident.
func (ix *Index) pageBuf(buf []byte) []byte {
	if cap(buf) == 0 {
		ix.resident += storage.PageSize
		return make([]byte, storage.PageSize)
	}
	clear(buf)
	return buf
}

// Flush forces all partial buffers into storage: every bucket's leaf and
// root buffers become (possibly short) nodes, and open pages are written
// out. The engine never calls it, because a short node is what §6.1
// avoids and Lookup reads partial buffers from memory. The paper
// experiments model an index that lives entirely on flash, so
// bench.BuildWorkload flushes its engine's index once where ingest ends,
// and AblationIndexLayout flushes its standalone tree as it flushes the
// lists it is compared with.
func (ix *Index) Flush() error {
	for i := range ix.buckets {
		b := &ix.buckets[i]
		if err := ix.flushLeaf(b); err != nil {
			return err
		}
		if err := ix.flushRoot(b); err != nil {
			return err
		}
	}
	if ix.openLeafID != nilPage {
		if err := ix.dev.Write(ix.openLeafID, ix.openLeafBuf); err != nil {
			return err
		}
	}
	if ix.openIndexID != nilPage {
		if err := ix.dev.Write(ix.openIndexID, ix.openIndexBuf); err != nil {
			return err
		}
	}
	return nil
}

// LookupResult carries a token's candidate data pages plus the simulated
// access profile of the traversal.
type LookupResult struct {
	// Pages is the sorted, deduplicated set of candidate data pages. It
	// over-approximates (bucket sharing), never under-approximates.
	Pages []storage.PageID
	// RootHops counts latency-bound, serially dependent root node visits.
	RootHops int
	// LeafReads counts leaf node reads (parallel within a root visit).
	LeafReads int
	// IndexPagesRead and LeafPagesRead count distinct storage pages
	// touched by the traversal.
	IndexPagesRead int
	LeafPagesRead  int
}

// BucketPages returns the total page count across the token's two
// buckets — an O(1) upper bound on how many candidate pages a Lookup
// would return. Query planners use it to skip traversals for unselective
// (stop-word-like) tokens, which cannot prune the page set anyway.
func (ix *Index) BucketPages(token string) uint64 {
	a, b := ix.hash(token)
	if a == b {
		return ix.buckets[a].count
	}
	return ix.buckets[a].count + ix.buckets[b].count
}

// Lookup returns the candidate pages for a token from both of its buckets.
func (ix *Index) Lookup(token string) (LookupResult, error) {
	if token == "" {
		return LookupResult{}, ErrTokenEmpty
	}
	a, b := ix.hash(token)
	// One page buffer serves every node read. It is kept out of w, which
	// escapes through its appends, so that it can live on the stack.
	buf := make([]byte, storage.PageSize)
	w := lookupWalk{ix: ix}
	for _, bi := range dedupe2(a, b) {
		bk := &ix.buckets[bi]
		// In-memory buffers first (newest data).
		w.pages = append(w.pages, bk.leafBuf...)
		for _, lr := range bk.rootBuf {
			if err := w.readLeafNode(lr, buf); err != nil {
				return w.res, err
			}
		}
		// Then the storage linked list.
		for ref := bk.head; !ref.isNil(); {
			next, err := w.readRootNode(ref, buf)
			if err != nil {
				return w.res, err
			}
			w.res.RootHops++
			for _, lr := range w.leaves {
				if err := w.readLeafNode(lr, buf); err != nil {
					return w.res, err
				}
			}
			ref = next
		}
	}
	slices.Sort(w.pages)
	w.res.Pages = dedupeSorted(w.pages)
	return w.res, nil
}

// lookupWalk is one Lookup's traversal state: the last root node's leaf
// references, the pages gathered so far, and the distinct index and leaf
// pages touched (few per lookup, so a linear scan beats a map). It is
// local to one Lookup and never on the Index, because lookups run
// concurrently under the engine's read lock.
type lookupWalk struct {
	ix                *Index
	leaves            []nodeRef
	pages             []storage.PageID
	seenIdx, seenLeaf []storage.PageID
	res               LookupResult
}

// firstVisit records page in seen and reports whether it was new there.
func firstVisit(seen *[]storage.PageID, page storage.PageID) bool {
	for _, p := range *seen {
		if p == page {
			return false
		}
	}
	*seen = append(*seen, page)
	return true
}

func dedupe2(a, b int) []int {
	if a == b {
		return []int{a}
	}
	return []int{a, b}
}

func dedupeSorted(pages []storage.PageID) []storage.PageID {
	if len(pages) == 0 {
		return pages
	}
	out := pages[:1]
	for _, p := range pages[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// readPage reads an index/leaf page, transparently serving the open
// (not-yet-flushed) pages from their memory buffers. Index traversal
// happens host-side, so reads cross the external link.
func (ix *Index) readPage(id storage.PageID, buf []byte) error {
	if id == ix.openLeafID {
		copy(buf, ix.openLeafBuf)
		return nil
	}
	if id == ix.openIndexID {
		copy(buf, ix.openIndexBuf)
		return nil
	}
	return ix.dev.Read(storage.External, id, buf)
}

// readRootNode reads the root node at ref, through buf, into w.leaves and
// returns the reference of the next (older) root node.
func (w *lookupWalk) readRootNode(ref nodeRef, buf []byte) (next nodeRef, err error) {
	ix := w.ix
	if err := ix.readPage(ref.page, buf); err != nil {
		return nilRef, err
	}
	if firstVisit(&w.seenIdx, ref.page) {
		w.res.IndexPagesRead++
	}
	off := int(ref.slot) * ix.rootNodeSize
	if off+ix.rootNodeSize > len(buf) {
		return nilRef, fmt.Errorf("index: root slot %d out of page", ref.slot)
	}
	node := buf[off : off+ix.rootNodeSize]
	n := int(binary.LittleEndian.Uint16(node))
	if n > ix.params.RootEntries {
		return nilRef, fmt.Errorf("index: corrupt root node (count %d)", n)
	}
	w.leaves = w.leaves[:0]
	for i := 0; i < n; i++ {
		w.leaves = append(w.leaves, nodeRef{
			page: storage.PageID(binary.LittleEndian.Uint32(node[2+6*i:])),
			slot: binary.LittleEndian.Uint16(node[2+6*i+4:]),
		})
	}
	tail := 2 + 6*ix.params.RootEntries
	next = nodeRef{
		page: storage.PageID(binary.LittleEndian.Uint32(node[tail:])),
		slot: binary.LittleEndian.Uint16(node[tail+4:]),
	}
	return next, nil
}

// readLeafNode reads the leaf node at ref, through buf, and appends its
// data page addresses to w.pages.
func (w *lookupWalk) readLeafNode(ref nodeRef, buf []byte) error {
	ix := w.ix
	if err := ix.readPage(ref.page, buf); err != nil {
		return err
	}
	if firstVisit(&w.seenLeaf, ref.page) {
		w.res.LeafPagesRead++
	}
	w.res.LeafReads++
	off := int(ref.slot) * ix.leafNodeSize
	if off+ix.leafNodeSize > len(buf) {
		return fmt.Errorf("index: leaf slot %d out of page", ref.slot)
	}
	node := buf[off : off+ix.leafNodeSize]
	n := int(binary.LittleEndian.Uint16(node))
	if n > ix.params.LeafEntries {
		return fmt.Errorf("index: corrupt leaf node (count %d)", n)
	}
	for i := 0; i < n; i++ {
		w.pages = append(w.pages, storage.PageID(binary.LittleEndian.Uint32(node[2+4*i:])))
	}
	return nil
}

// SimulatedLookupTime estimates the traversal time of a lookup on the
// simulated device: root hops are serially dependent (one flash latency
// each), and each root visit's leaf pages stream in parallel.
func (ix *Index) SimulatedLookupTime(res LookupResult) time.Duration {
	t := ix.dev.DependentAccessTime(uint64(res.RootHops))
	t += ix.dev.TransferTime(storage.External, uint64(res.IndexPagesRead+res.LeafPagesRead)*storage.PageSize)
	return t
}
