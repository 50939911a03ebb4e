package mithrilog

import (
	"errors"
	"io"

	"mithrilog/internal/router"
)

// ErrSharded reports a whole-store pass — SearchBatch, Tag, and the
// analytics built on them — called on a sharded engine. Those passes need
// the single-engine layout; every other operation, persistence included,
// works at every width.
var ErrSharded = errors.New("mithrilog: operation needs a single engine and is not supported with Config.Shards > 1")

// WriteSegments writes the engine's sealed-segment stream, the one
// persistence format: buffered lines are flushed, the active segment is
// sealed, and every segment's pages plus the checksummed index.meta
// manifest — which also carries the Snapshot time boundaries — go to w.
// A sharded engine writes a fleet stream (shard count + one segment
// stream per shard). The stream holds no index tables: Reopen re-derives
// them from the data, so the stream survives index-geometry changes.
func (e *Engine) WriteSegments(w io.Writer) error {
	return e.router.WriteSegments(w)
}

// Reopen rebuilds an engine from a WriteSegments stream, verifying every
// segment checksum and re-deriving the index from the stored pages. cfg
// supplies the hardware model and the scheduler and cache settings. The
// stream's own shape decides the fleet: a fleet stream reopens as a
// sharded engine with the shard count recorded at write time (overriding
// cfg.Shards, so tenant placement stays consistent); a single-engine
// stream reopens as a single engine, and fails with cfg.Shards > 1. A
// damaged or truncated stream is rejected before any engine is built.
func Reopen(cfg Config, r io.Reader) (*Engine, error) {
	return fromRouter(router.Reopen(cfg.toRouter(), r))
}

// Export streams the whole store's decompressed text to w — the paper's
// §3 decompress-and-forward device mode — one shard after another in
// shard order. Returns the number of bytes written.
func (e *Engine) Export(w io.Writer) (uint64, error) {
	return e.router.Export(w)
}
