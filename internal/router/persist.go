package router

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"mithrilog/internal/core"
	"mithrilog/internal/storage"
)

// Fleet persistence: WriteSegments serializes every shard's sealed
// segment store in shard order; Reopen rebuilds the whole fleet from
// that stream. Each shard's payload is the engine-level segment stream
// (checksummed segments + index.meta), so the fleet file inherits the
// same corruption guarantees — any damaged shard fails the reopen, and
// no shard serves a line that fails its checksum. A one-shard fleet
// writes the bare engine stream, with no fleet header.

const (
	fleetMagic   = "MLFLEET\x00"
	fleetVersion = 1
	// maxShardBlob bounds a per-shard stream read from untrusted input
	// (1 GiB — far above anything the simulator produces).
	maxShardBlob = 1 << 30
)

// WriteSegments flushes and seals every shard, then streams the fleet:
// header (magic, version, shard count), then each shard's segment stream
// length-prefixed, in shard order. One shard writes its engine stream
// straight to w.
//
//mithrilint:persist encode fleet
func (r *Router) WriteSegments(w io.Writer) error {
	if err := r.begin(); err != nil {
		return err
	}
	defer r.active.Done()
	if len(r.shards) == 1 {
		return r.shards[0].eng.WriteSegments(w)
	}
	var hdr []byte
	hdr = append(hdr, fleetMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, fleetVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(r.shards)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var buf bytes.Buffer
	for i, sh := range r.shards {
		buf.Reset()
		if err := sh.eng.WriteSegments(&buf); err != nil {
			return fmt.Errorf("router: shard %d: %w", i, err)
		}
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(buf.Len()))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Reopen rebuilds a router from a stream produced by WriteSegments. The
// stream's shape decides the width: a fleet stream reopens with the shard
// count recorded at write time (overriding cfg.Shards — placement is
// consistent only with the same shard count, so reopening into a
// different width would silently misroute tenants), and a bare engine
// stream reopens as one shard, which cfg.Shards > 1 refuses. Every
// shard's segments are checksum-verified before any engine is built, so a
// damaged stream costs a parse, not a fleet.
//
//mithrilint:persist decode fleet
func Reopen(cfg Config, rd io.Reader) (*Router, error) {
	open := func(r io.Reader) (*storage.SegmentStore, error) {
		return storage.OpenSegmentStore(storage.New(cfg.Engine.Storage), r)
	}
	var stores []*storage.SegmentStore
	br := bufio.NewReader(rd)
	if magic, err := br.Peek(len(fleetMagic)); err != nil || string(magic) != fleetMagic {
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("%w: cfg.Shards > 1 but the stream is not a fleet stream", storage.ErrSegmentCorrupt)
		}
		st, err := open(br)
		if err != nil {
			return nil, err
		}
		stores = append(stores, st)
	} else {
		hdr := make([]byte, len(fleetMagic)+8)
		if _, err := io.ReadFull(br, hdr); err != nil {
			return nil, fmt.Errorf("%w: fleet header: %v", storage.ErrSegmentCorrupt, err)
		}
		ver := binary.LittleEndian.Uint32(hdr[len(fleetMagic):])
		if ver != fleetVersion {
			return nil, fmt.Errorf("%w: unsupported fleet version %d", storage.ErrSegmentCorrupt, ver)
		}
		nShards := int(binary.LittleEndian.Uint32(hdr[len(fleetMagic)+4:]))
		if nShards < 1 || nShards > 1024 {
			return nil, fmt.Errorf("%w: implausible shard count %d", storage.ErrSegmentCorrupt, nShards)
		}
		for i := 0; i < nShards; i++ {
			var lenBuf [4]byte
			if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
				return nil, fmt.Errorf("%w: shard %d length: %v", storage.ErrSegmentCorrupt, i, err)
			}
			n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
			if n > maxShardBlob {
				return nil, fmt.Errorf("%w: shard %d: implausible stream length %d", storage.ErrSegmentCorrupt, i, n)
			}
			blob := make([]byte, n)
			if _, err := io.ReadFull(br, blob); err != nil {
				return nil, fmt.Errorf("%w: shard %d stream: %v", storage.ErrSegmentCorrupt, i, err)
			}
			st, err := open(bytes.NewReader(blob))
			if err != nil {
				return nil, fmt.Errorf("router: shard %d: %w", i, err)
			}
			stores = append(stores, st)
		}
	}
	next := 0
	return build(cfg, len(stores), func(ecfg core.Config) (*core.Engine, error) {
		st := stores[next]
		next++
		return core.ReopenStore(ecfg, st)
	})
}
