package core

import (
	"io"

	"mithrilog/internal/lzah"
	"mithrilog/internal/storage"
)

// This file is the crash/restart boundary of the engine. WriteSegments
// serializes everything the engine has accepted into the segment-store
// stream format (index.meta sidecar plus checksummed segment blobs), which
// is the only way an engine reaches disk; ReopenEngine rebuilds a fully
// functional engine from that stream alone. The stream carries the data
// pages and the §6.3 time boundaries. The inverted index is deliberately
// NOT part of it: it is rebuilt from the decompressed pages by the page
// indexer ingest uses (indexPage), so the only state that must survive a
// crash is the sealed, checksummed data — the recovery invariant the
// multi-shard oracle asserts (no accepted line lost, every query answered
// identically).

// WriteSegments flushes buffered lines, seals the active segment, and
// streams the whole segment store to w in the format ReopenEngine reads.
func (e *Engine) WriteSegments(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.flushLocked(); err != nil {
		return err
	}
	e.store.Seal()
	_, err := e.store.WriteTo(w)
	return err
}

// ReopenEngine rebuilds an engine from a stream produced by
// WriteSegments. Every segment payload is checksum-verified before the
// engine is built (storage.OpenSegmentStore rejects the whole stream on
// any corruption); ReopenStore then rebuilds the rest.
func ReopenEngine(cfg Config, r io.Reader) (*Engine, error) {
	st, err := storage.OpenSegmentStore(storage.New(cfg.Storage), r)
	if err != nil {
		return nil, err
	}
	return ReopenStore(cfg, st)
}

// ReopenStore builds an engine over a store that OpenSegmentStore has
// verified, on the store's device. The index, line counts, and byte
// totals are reconstructed by decompressing each recovered page and
// running it through ingest's page indexer. Recovery reads cross the
// device-internal link — on the real hardware the rebuild runs next to
// the flash, like ingest.
func ReopenStore(cfg Config, st *storage.SegmentStore) (*Engine, error) {
	e := newEngine(cfg, st)
	// Nothing else holds e yet; the rebuild takes the write lock anyway, as
	// ingest does, because it runs ingest's page indexer.
	e.mu.Lock()
	defer e.mu.Unlock()
	dec := lzah.NewCodec(e.cfg.Compression)
	var raw []byte
	for _, rec := range st.Records() {
		page, err := e.dev.View(storage.Internal, rec.Page)
		if err != nil {
			return nil, err
		}
		raw, err = dec.Decompress(raw[:0], page)
		if err != nil {
			return nil, err
		}
		e.dataPages = append(e.dataPages, rec.Page)
		e.compBytes += uint64(rec.Len)
		e.profile.PagesWritten++
		lines, _, err := e.indexPage(raw, rec.Page)
		if err != nil {
			return nil, err
		}
		e.rawBytes += uint64(len(raw))
		e.lineCount += uint64(lines)
	}
	return e, nil
}
