package index

import (
	"fmt"
	"time"

	"mithrilog/internal/storage"
)

// SavedIndex is the gob-serializable form of an Index's in-memory state
// (the in-storage nodes live in the device's pages and are serialized by
// the storage snapshot).
type SavedIndex struct {
	Params  Params
	Buckets []SavedBucket

	OpenLeafID    uint32
	OpenLeafBuf   []byte
	OpenLeafUsed  int
	OpenIndexID   uint32
	OpenIndexBuf  []byte
	OpenIndexUsed int

	Snapshots []SavedSnapshot
	HighData  uint32
	Stats     Stats
}

// SavedBucket serializes one hash bucket.
type SavedBucket struct {
	LeafBuf  []uint32
	RootBuf  []SavedRef
	Head     SavedRef
	Count    uint64
	HasState bool // false for untouched buckets (kept compact)
}

// SavedRef serializes a node reference.
type SavedRef struct {
	Page uint32
	Slot uint16
}

// SavedSnapshot serializes a time boundary.
type SavedSnapshot struct {
	UnixNano int64
	DataHigh uint32
}

func refToSaved(r nodeRef) SavedRef { return SavedRef{Page: uint32(r.page), Slot: r.slot} }
func savedToRef(s SavedRef) nodeRef {
	return nodeRef{page: storage.PageID(s.Page), slot: s.Slot}
}

// Save captures the index's in-memory state for serialization.
func (ix *Index) Save() *SavedIndex {
	s := &SavedIndex{
		Params:        ix.params,
		OpenLeafID:    uint32(ix.openLeafID),
		OpenLeafBuf:   append([]byte(nil), ix.openLeafBuf...),
		OpenLeafUsed:  ix.openLeafUsed,
		OpenIndexID:   uint32(ix.openIndexID),
		OpenIndexBuf:  append([]byte(nil), ix.openIndexBuf...),
		OpenIndexUsed: ix.openIndexUsed,
		HighData:      uint32(ix.highData),
		Stats:         ix.stats,
	}
	s.Buckets = make([]SavedBucket, len(ix.buckets))
	for i := range ix.buckets {
		b := &ix.buckets[i]
		if b.count == 0 && b.head.isNil() {
			continue
		}
		sb := SavedBucket{
			Head:     refToSaved(b.head),
			Count:    b.count,
			HasState: true,
		}
		for _, p := range b.leafBuf {
			sb.LeafBuf = append(sb.LeafBuf, uint32(p))
		}
		for _, r := range b.rootBuf {
			sb.RootBuf = append(sb.RootBuf, refToSaved(r))
		}
		s.Buckets[i] = sb
	}
	for _, snap := range ix.snapshots {
		s.Snapshots = append(s.Snapshots, SavedSnapshot{
			UnixNano: snap.Time.UnixNano(),
			DataHigh: uint32(snap.DataHigh),
		})
	}
	return s
}

// LoadIndex rebuilds an index from saved state on a restored device. It
// allocates through the same helpers as ingest, so the loaded index's
// MemoryFootprint counts exactly the buffers it holds. Saved state no
// ingest could leave behind — a node buffer at or past its node's
// capacity, an open page that is not one page long — is rejected.
func LoadIndex(dev *storage.Device, s *SavedIndex) (*Index, error) {
	ix := New(dev, s.Params)
	if len(s.Buckets) != len(ix.buckets) {
		return nil, fmt.Errorf("index: saved %d buckets, params say %d", len(s.Buckets), len(ix.buckets))
	}
	for i := range s.Buckets {
		sb := &s.Buckets[i]
		if !sb.HasState {
			continue
		}
		if len(sb.LeafBuf) >= ix.params.LeafEntries || len(sb.RootBuf) >= ix.params.RootEntries {
			return nil, fmt.Errorf("index: saved bucket %d buffers %d leaf and %d root entries, nodes hold %d and %d",
				i, len(sb.LeafBuf), len(sb.RootBuf), ix.params.LeafEntries, ix.params.RootEntries)
		}
		b := &ix.buckets[i]
		b.count = sb.Count
		b.head = savedToRef(sb.Head)
		if len(sb.LeafBuf) > 0 || len(sb.RootBuf) > 0 {
			ix.reserveBuffers(b)
			for _, p := range sb.LeafBuf {
				b.leafBuf = append(b.leafBuf, storage.PageID(p))
			}
			for _, r := range sb.RootBuf {
				b.rootBuf = append(b.rootBuf, savedToRef(r))
			}
		}
	}
	var err error
	ix.openLeafID = storage.PageID(s.OpenLeafID)
	if ix.openLeafBuf, err = ix.loadPageBuf(s.OpenLeafBuf); err != nil {
		return nil, err
	}
	ix.openLeafUsed = s.OpenLeafUsed
	ix.openIndexID = storage.PageID(s.OpenIndexID)
	if ix.openIndexBuf, err = ix.loadPageBuf(s.OpenIndexBuf); err != nil {
		return nil, err
	}
	ix.openIndexUsed = s.OpenIndexUsed
	ix.highData = storage.PageID(s.HighData)
	ix.stats = s.Stats
	for _, snap := range s.Snapshots {
		ix.snapshots = append(ix.snapshots, Snapshot{
			Time:     time.Unix(0, snap.UnixNano),
			DataHigh: storage.PageID(snap.DataHigh),
		})
	}
	return ix, nil
}

// loadPageBuf restores a saved open page into a buffer from pageBuf; a
// page never opened was saved empty and stays unallocated.
func (ix *Index) loadPageBuf(saved []byte) ([]byte, error) {
	switch len(saved) {
	case 0:
		return nil, nil
	case storage.PageSize:
		buf := ix.pageBuf(nil)
		copy(buf, saved)
		return buf, nil
	}
	return nil, fmt.Errorf("index: saved open page holds %d bytes, want %d", len(saved), storage.PageSize)
}
