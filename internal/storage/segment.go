package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"time"
)

// The segment store organizes a device's data pages into append-only
// *segments*: fixed-capacity runs of checksummed pages that are sealed
// once full and immutable afterwards. Sealing is the durability boundary
// the scale-out design hangs off — a sealed segment can be serialized,
// shipped, verified, and reopened on a fresh device without trusting
// anything but its checksums, and retention/compaction/rebalancing all
// operate on sealed segments as units. An `index.meta` sidecar summarizes
// the segment set (ids, record counts, per-segment checksums) so a
// reopener can cross-check every segment blob against an independent
// manifest before serving a single line from it. The sidecar also carries
// the §6.3 time boundaries, each stored as a position in the page log,
// so a reopened store answers time-range queries as the original did.
//
// The store is a bookkeeping layer over the simulated Device: pages still
// live in the device (data pages interleave freely with the inverted
// index's node pages), and the store records which pages belong to which
// segment, each page's payload length, and its CRC32. Immutability is by
// construction — the store exposes no rewrite API, and the engine never
// rewrites a data page.

// DefaultSegmentPages is the number of data pages per segment when the
// config does not override it. Small enough that tests exercise many seal
// boundaries; large enough that per-segment overhead is negligible.
const DefaultSegmentPages = 64

// Segment serialization constants. Both blobs carry magic + version so a
// truncated or byte-flipped stream is rejected before any length field is
// trusted.
const (
	segMetaMagic = "MLSEGMET"
	segDataMagic = "MLSEGDAT"
	// segVersion 2: index.meta carries the time-boundary table after the
	// segment manifest.
	segVersion = 2

	// maxSegmentPages bounds pagesPerSegment read from untrusted meta
	// (8192 pages = 32 MiB per segment, far above any configured value).
	maxSegmentPages = 1 << 13
	// maxSegments bounds the segment count read from untrusted meta.
	maxSegments = 1 << 20
)

// Segment-store parse errors. OpenSegmentStore wraps these with context;
// errors.Is still matches.
var (
	// ErrSegmentCorrupt reports a structural or checksum failure in a
	// segment blob or the index.meta sidecar.
	ErrSegmentCorrupt = errors.New("storage: segment corrupt")
	// ErrSegmentSealed reports an append into a sealed segment.
	ErrSegmentSealed = errors.New("storage: segment sealed")
)

// SegmentRecord describes one data page: where it lives on the device,
// how many payload bytes it holds (the rest of the 4 KiB page is zero
// padding), and the CRC32 of those payload bytes.
type SegmentRecord struct {
	Page PageID
	Len  uint32
	CRC  uint32
}

// segment is one segment's in-memory state.
type segment struct {
	id     uint32
	recs   []SegmentRecord
	sealed bool
	crc    uint32 // seal-time checksum over the record table
}

// SegmentStats summarizes a store for metrics and tests.
type SegmentStats struct {
	// Sealed and Active count segments by state (Active is 0 or 1).
	Sealed, Active int
	// SealedPages and ActivePages count data pages by segment state.
	SealedPages, ActivePages int
}

// boundary is one §6.3 time boundary: the first pages data pages were
// ingested no later than the unix-nanosecond time at. It counts pages
// rather than naming a PageID, because reopen reassigns page ids.
type boundary struct {
	at    int64
	pages uint32
}

// SegmentStore tracks the segment membership of a device's data pages and
// the time boundaries recorded over them. All methods are safe for
// concurrent use.
type SegmentStore struct {
	dev    *Device
	perSeg int

	mu     sync.Mutex
	segs   []*segment // guarded by mu
	bounds []boundary // guarded by mu
}

// NewSegmentStore creates an empty store appending into dev. Pages per
// segment defaults to DefaultSegmentPages when <= 0.
func NewSegmentStore(dev *Device, pagesPerSegment int) *SegmentStore {
	if pagesPerSegment <= 0 {
		pagesPerSegment = DefaultSegmentPages
	}
	return &SegmentStore{dev: dev, perSeg: pagesPerSegment}
}

// PagesPerSegment returns the store's segment capacity in pages.
func (s *SegmentStore) PagesPerSegment() int { return s.perSeg }

// Device returns the device the store appends into.
func (s *SegmentStore) Device() *Device { return s.dev }

// Mark records a time boundary after every page appended so far.
func (s *SegmentStore) Mark(ts time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pages int
	for _, seg := range s.segs {
		pages += len(seg.recs)
	}
	s.bounds = append(s.bounds, boundary{at: unixNano(ts), pages: uint32(pages)})
}

// PagesBefore returns the page count of the newest boundary not after ts,
// or 0 if there is none: a query bounded at ts reads the pages before it.
func (s *SegmentStore) PagesBefore(ts time.Time) int {
	at := unixNano(ts)
	s.mu.Lock()
	defer s.mu.Unlock()
	var pages uint32
	for _, b := range s.bounds {
		if b.at <= at {
			pages = max(pages, b.pages)
		}
	}
	return int(pages)
}

// unixNano is ts in Unix nanoseconds, clamped to the int64 range, so a
// time outside it still orders correctly against every boundary.
func unixNano(ts time.Time) int64 {
	switch {
	case ts.Before(time.Unix(0, math.MinInt64)):
		return math.MinInt64
	case ts.After(time.Unix(0, math.MaxInt64)):
		return math.MaxInt64
	}
	return ts.UnixNano()
}

// Append writes data into a fresh device page, records it in the active
// segment, and seals the segment when it reaches capacity.
func (s *SegmentStore) Append(data []byte) (PageID, error) {
	if len(data) > PageSize {
		return 0, ErrPageOverflow
	}
	crc := crc32.ChecksumIEEE(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.dev.Append(data)
	if err != nil {
		return 0, err
	}
	act := s.activeLocked()
	act.recs = append(act.recs, SegmentRecord{Page: id, Len: uint32(len(data)), CRC: crc})
	if len(act.recs) >= s.perSeg {
		sealLocked(act)
	}
	return id, nil
}

// activeLocked returns the unsealed tail segment, creating one if needed.
func (s *SegmentStore) activeLocked() *segment {
	if n := len(s.segs); n > 0 && !s.segs[n-1].sealed {
		return s.segs[n-1]
	}
	seg := &segment{id: uint32(len(s.segs))}
	s.segs = append(s.segs, seg)
	return seg
}

// sealLocked marks a segment immutable and stamps its record-table CRC.
func sealLocked(seg *segment) {
	seg.sealed = true
	seg.crc = recordTableCRC(seg.recs)
}

// recordTableCRC checksums a segment's record table (lengths and page
// CRCs, not device page ids — ids are reassigned on reopen).
func recordTableCRC(recs []SegmentRecord) uint32 {
	var buf [8]byte
	h := crc32.NewIEEE()
	for _, r := range recs {
		binary.LittleEndian.PutUint32(buf[0:4], r.Len)
		binary.LittleEndian.PutUint32(buf[4:8], r.CRC)
		h.Write(buf[:])
	}
	return h.Sum32()
}

// Seal seals the active segment, if it holds any pages. Sealing an empty
// or already-sealed store is a no-op.
func (s *SegmentStore) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.segs); n > 0 && !s.segs[n-1].sealed {
		if len(s.segs[n-1].recs) == 0 {
			s.segs = s.segs[:n-1]
			return
		}
		sealLocked(s.segs[n-1])
	}
}

// Stats snapshots the store's segment and page counts.
func (s *SegmentStore) Stats() SegmentStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st SegmentStats
	for _, seg := range s.segs {
		if seg.sealed {
			st.Sealed++
			st.SealedPages += len(seg.recs)
		} else {
			st.Active++
			st.ActivePages += len(seg.recs)
		}
	}
	return st
}

// Records returns every data-page record in append order (sealed segments
// first, then the active tail). The slice is a copy.
func (s *SegmentStore) Records() []SegmentRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SegmentRecord
	for _, seg := range s.segs {
		out = append(out, seg.recs...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Serialization: index.meta sidecar + per-segment blobs.

// EncodeMeta renders the index.meta sidecar: a manifest of every sealed
// segment (id, record count, record-table CRC), then the time-boundary
// table (unix nanoseconds, pages before), under one trailing CRC32. A
// reopener cross-checks each segment blob against this manifest, so a
// swapped or truncated segment file is caught even if the blob is
// internally consistent.
//
//mithrilint:persist encode segmeta
func (s *SegmentStore) EncodeMeta() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		if !seg.sealed {
			return nil, fmt.Errorf("storage: encode meta with unsealed segment %d (Seal first)", seg.id)
		}
	}
	var b []byte
	b = append(b, segMetaMagic...)
	b = appendU32(b, segVersion)
	b = appendU32(b, uint32(s.perSeg))
	b = appendU32(b, uint32(len(s.segs)))
	for _, seg := range s.segs {
		b = appendU32(b, seg.id)
		b = appendU32(b, uint32(len(seg.recs)))
		b = appendU32(b, seg.crc)
	}
	b = appendU32(b, uint32(len(s.bounds)))
	for _, bd := range s.bounds {
		b = binary.LittleEndian.AppendUint64(b, uint64(bd.at))
		b = appendU32(b, bd.pages)
	}
	return appendU32(b, crc32.ChecksumIEEE(b)), nil
}

// EncodeSegment renders sealed segment i as a self-describing blob:
// header, then each record's length, CRC, and payload bytes (only the
// payload — zero padding is reconstructed on reopen), then the
// record-table CRC.
//
//mithrilint:persist encode segdata
func (s *SegmentStore) EncodeSegment(i int) ([]byte, error) {
	s.mu.Lock()
	if i < 0 || i >= len(s.segs) {
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: no segment %d", i)
	}
	seg := s.segs[i]
	if !seg.sealed {
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: segment %d not sealed", i)
	}
	recs := append([]SegmentRecord(nil), seg.recs...)
	id, crc := seg.id, seg.crc
	s.mu.Unlock()

	var b []byte
	b = append(b, segDataMagic...)
	b = appendU32(b, segVersion)
	b = appendU32(b, id)
	b = appendU32(b, uint32(len(recs)))
	for _, r := range recs {
		b = appendU32(b, r.Len)
		b = appendU32(b, r.CRC)
		page, err := s.dev.pageView(r.Page)
		if err != nil {
			return nil, err
		}
		b = append(b, page[:r.Len]...)
	}
	return appendU32(b, crc), nil
}

// WriteTo serializes the whole store — length-prefixed meta sidecar, then
// each segment blob length-prefixed — in a form OpenSegmentStore reads
// back. Every segment must be sealed (call Seal first); the active
// segment's pages would otherwise silently change after the write.
func (s *SegmentStore) WriteTo(w io.Writer) (int64, error) {
	meta, err := s.EncodeMeta()
	if err != nil {
		return 0, err
	}
	var written int64
	emit := func(blob []byte) error {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(blob)))
		n, err := w.Write(lenBuf[:])
		written += int64(n)
		if err != nil {
			return err
		}
		n, err = w.Write(blob)
		written += int64(n)
		return err
	}
	if err := emit(meta); err != nil {
		return written, err
	}
	s.mu.Lock()
	nSegs := len(s.segs)
	s.mu.Unlock()
	for i := 0; i < nSegs; i++ {
		blob, err := s.EncodeSegment(i)
		if err != nil {
			return written, err
		}
		if err := emit(blob); err != nil {
			return written, err
		}
	}
	return written, nil
}

// OpenSegmentStore reads a stream produced by WriteTo into dev: the meta
// sidecar is parsed first, then every segment blob is parsed, verified
// against the manifest (id, record count, record-table CRC) and against
// its own per-page CRCs, and its payloads are appended to the device as
// fresh pages. Nothing is served from a page whose checksum fails: any
// corruption, truncation, or manifest mismatch fails the whole open with
// ErrSegmentCorrupt. The input is untrusted — all lengths are bounds-
// checked before use, and malformed input returns an error, never panics.
func OpenSegmentStore(dev *Device, r io.Reader) (*SegmentStore, error) {
	meta, err := readBlob(r)
	if err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrSegmentCorrupt, err)
	}
	manifest, perSeg, bounds, err := parseMeta(meta)
	if err != nil {
		return nil, err
	}
	s := NewSegmentStore(dev, perSeg)
	s.bounds = bounds
	for i, want := range manifest {
		blob, err := readBlob(r)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: %v", ErrSegmentCorrupt, i, err)
		}
		seg, err := parseSegment(dev, blob, want)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	return s, nil
}

// metaEntry is one manifest row of the index.meta sidecar.
type metaEntry struct {
	id   uint32
	recs uint32
	crc  uint32
}

// parseMeta validates and decodes the index.meta sidecar: the segment
// manifest, the pages per segment, and the time boundaries.
//
//mithrilint:persist decode segmeta
func parseMeta(b []byte) ([]metaEntry, int, []boundary, error) {
	c := cursor{b: b}
	if !c.magic(segMetaMagic) {
		return nil, 0, nil, fmt.Errorf("%w: bad meta magic", ErrSegmentCorrupt)
	}
	// The trailing CRC covers everything before it.
	if len(b) < len(segMetaMagic)+4 {
		return nil, 0, nil, fmt.Errorf("%w: meta truncated", ErrSegmentCorrupt)
	}
	body, tail := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != tail {
		return nil, 0, nil, fmt.Errorf("%w: meta checksum mismatch", ErrSegmentCorrupt)
	}
	c.b = body
	ver, ok := c.u32()
	if !ok || ver != segVersion {
		return nil, 0, nil, fmt.Errorf("%w: unsupported meta version", ErrSegmentCorrupt)
	}
	perSeg, ok := c.u32()
	if !ok || perSeg == 0 || perSeg > maxSegmentPages {
		return nil, 0, nil, fmt.Errorf("%w: implausible pages-per-segment", ErrSegmentCorrupt)
	}
	nSegs, ok := c.u32()
	if !ok || nSegs > maxSegments {
		return nil, 0, nil, fmt.Errorf("%w: implausible segment count", ErrSegmentCorrupt)
	}
	entries := make([]metaEntry, 0, nSegs)
	var pages uint64
	for i := uint32(0); i < nSegs; i++ {
		id, ok1 := c.u32()
		recs, ok2 := c.u32()
		crc, ok3 := c.u32()
		if !ok1 || !ok2 || !ok3 {
			return nil, 0, nil, fmt.Errorf("%w: meta truncated", ErrSegmentCorrupt)
		}
		if id != i {
			return nil, 0, nil, fmt.Errorf("%w: meta segment ids not sequential", ErrSegmentCorrupt)
		}
		if recs == 0 || recs > perSeg {
			return nil, 0, nil, fmt.Errorf("%w: meta segment %d has %d records (cap %d)", ErrSegmentCorrupt, i, recs, perSeg)
		}
		entries = append(entries, metaEntry{id: id, recs: recs, crc: crc})
		pages += uint64(recs)
	}
	// Each boundary is 12 bytes, so once the count fits what is left, no
	// read below can run short.
	nBounds, ok := c.u32()
	if !ok || uint64(nBounds)*12 > uint64(len(c.b)-c.off) {
		return nil, 0, nil, fmt.Errorf("%w: meta truncated", ErrSegmentCorrupt)
	}
	bounds := make([]boundary, 0, nBounds)
	for i := uint32(0); i < nBounds; i++ {
		at, _ := c.u64()
		n, _ := c.u32()
		if uint64(n) > pages || (i > 0 && n < bounds[i-1].pages) {
			return nil, 0, nil, fmt.Errorf("%w: meta boundary %d at page %d is out of order", ErrSegmentCorrupt, i, n)
		}
		bounds = append(bounds, boundary{at: int64(at), pages: n})
	}
	if c.off != len(c.b) {
		return nil, 0, nil, fmt.Errorf("%w: meta has trailing bytes", ErrSegmentCorrupt)
	}
	return entries, int(perSeg), bounds, nil
}

// parseSegment validates one blob against its manifest row and appends
// its payloads to the device.
//
//mithrilint:persist decode segdata
func parseSegment(dev *Device, b []byte, want metaEntry) (*segment, error) {
	c := cursor{b: b}
	if !c.magic(segDataMagic) {
		return nil, fmt.Errorf("%w: segment %d: bad magic", ErrSegmentCorrupt, want.id)
	}
	ver, ok := c.u32()
	if !ok || ver != segVersion {
		return nil, fmt.Errorf("%w: segment %d: unsupported version", ErrSegmentCorrupt, want.id)
	}
	id, ok := c.u32()
	if !ok || id != want.id {
		return nil, fmt.Errorf("%w: segment %d: blob claims id %d", ErrSegmentCorrupt, want.id, id)
	}
	nRecs, ok := c.u32()
	if !ok || nRecs != want.recs {
		return nil, fmt.Errorf("%w: segment %d: blob has %d records, meta says %d", ErrSegmentCorrupt, want.id, nRecs, want.recs)
	}
	seg := &segment{id: id, sealed: true}
	for i := uint32(0); i < nRecs; i++ {
		length, ok1 := c.u32()
		crc, ok2 := c.u32()
		if !ok1 || !ok2 || length == 0 || length > PageSize {
			return nil, fmt.Errorf("%w: segment %d record %d: bad length", ErrSegmentCorrupt, id, i)
		}
		payload, ok := c.bytes(int(length))
		if !ok {
			return nil, fmt.Errorf("%w: segment %d record %d: truncated payload", ErrSegmentCorrupt, id, i)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("%w: segment %d record %d: payload checksum mismatch", ErrSegmentCorrupt, id, i)
		}
		page, err := dev.Append(payload)
		if err != nil {
			return nil, err
		}
		seg.recs = append(seg.recs, SegmentRecord{Page: page, Len: length, CRC: crc})
	}
	tail, ok := c.u32()
	if !ok {
		return nil, fmt.Errorf("%w: segment %d: missing record-table checksum", ErrSegmentCorrupt, id)
	}
	if c.off != len(b) {
		return nil, fmt.Errorf("%w: segment %d: trailing bytes", ErrSegmentCorrupt, id)
	}
	seg.crc = recordTableCRC(seg.recs)
	if tail != seg.crc || tail != want.crc {
		return nil, fmt.Errorf("%w: segment %d: record-table checksum mismatch", ErrSegmentCorrupt, id)
	}
	return seg, nil
}

// readBlob reads one length-prefixed blob, bounding the length before
// allocating.
func readBlob(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	// A blob holds at most a header plus maxSegmentPages full pages.
	if n > 64+int64(maxSegmentPages)*(PageSize+8) {
		return nil, fmt.Errorf("implausible blob length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// cursor is a bounds-checked little-endian reader over untrusted bytes.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) magic(m string) bool {
	if len(c.b)-c.off < len(m) || string(c.b[c.off:c.off+len(m)]) != m {
		return false
	}
	c.off += len(m)
	return true
}

func (c *cursor) u32() (uint32, bool) {
	if len(c.b)-c.off < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, true
}

func (c *cursor) u64() (uint64, bool) {
	if len(c.b)-c.off < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, true
}

func (c *cursor) bytes(n int) ([]byte, bool) {
	if n < 0 || len(c.b)-c.off < n {
		return nil, false
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out, true
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}
