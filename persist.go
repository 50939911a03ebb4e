package mithrilog

import (
	"errors"
	"io"

	"mithrilog/internal/router"
)

// ErrSharded reports an operation that needs the single-engine layout
// called on a sharded engine: the whole-store passes (Tag, SearchBatch and
// the analytics built on them) and the gob Save/Load. Fleets persist
// through WriteSegments/Reopen instead, whose stream carries the shard
// count so placement stays consistent across restarts.
var ErrSharded = errors.New("mithrilog: operation needs a single engine and is not supported with Config.Shards > 1 (fleets persist through WriteSegments/Reopen)")

// Save serializes the engine's persistent state — storage pages (data +
// in-storage index nodes), the in-memory index tables, and metadata — so
// an ingested log can be queried later without re-ingesting. Buffered
// lines are flushed first. Sharded engines persist through WriteSegments.
func (e *Engine) Save(w io.Writer) error {
	if e.router.NumShards() > 1 {
		return ErrSharded
	}
	return e.router.Shard(0).Save(w)
}

// Load reconstructs an engine previously written with Save. cfg supplies
// the hardware model (pipelines, bandwidths) and the scheduler/cache
// settings; the index geometry comes from the file. cfg.Shards must be
// unset: Save streams are single-engine (see Reopen for fleets).
func Load(cfg Config, r io.Reader) (*Engine, error) {
	if cfg.Shards > 1 {
		return nil, ErrSharded
	}
	return fromRouter(router.Load(cfg.toRouter(), r))
}

// WriteSegments writes the engine's sealed-segment stream: buffered lines
// are flushed, the active segment is sealed, and every segment's pages
// plus the checksummed index.meta manifest go to w. A sharded engine
// writes a fleet stream (shard count + one segment stream per shard).
// Reopen rebuilds a byte-identical engine from the stream; unlike Save
// it carries no index tables — Reopen re-derives them from the data, so
// the stream survives index-geometry changes and is the crash-recovery
// format the reopen oracle exercises.
func (e *Engine) WriteSegments(w io.Writer) error {
	return e.router.WriteSegments(w)
}

// Reopen rebuilds an engine from a WriteSegments stream, verifying every
// segment checksum and re-deriving the index from the stored pages. The
// stream's own shape decides the fleet: a fleet stream reopens as a
// sharded engine with the shard count recorded at write time (overriding
// cfg.Shards, so tenant placement stays consistent); a single-engine
// stream reopens as a single engine, and fails with cfg.Shards > 1.
func Reopen(cfg Config, r io.Reader) (*Engine, error) {
	return fromRouter(router.Reopen(cfg.toRouter(), r))
}

// Export streams the whole store's decompressed text to w — the paper's
// §3 decompress-and-forward device mode — one shard after another in
// shard order. Returns the number of bytes written.
func (e *Engine) Export(w io.Writer) (uint64, error) {
	return e.router.Export(w)
}
