package mithrilog

import (
	"testing"

	"mithrilog/internal/index"
	"mithrilog/internal/loggen"
)

// TestFleetStoresLikeOneEngine pins what a fleet stores against one
// engine holding the same lines. Untenanted ingest stripes runs of lines,
// so a 4-shard fleet's pages compress like one engine's; each shard's
// index table is 1/4 of the default, so the fleet's compressed bytes plus
// index memory stay near one engine's.
func TestFleetStoresLikeOneEngine(t *testing.T) {
	ds := loggen.Generate(loggen.Liberty2, 45056, 11)
	stats := map[int]Stats{}
	for _, width := range []int{1, 4} {
		eng := Open(Config{Shards: width})
		for off := 0; off < len(ds.Lines); off += 4096 {
			if err := eng.IngestBytes(ds.Lines[off:min(off+4096, len(ds.Lines))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		stats[width] = eng.Stats()
		for i := 0; i < width; i++ {
			if got, want := eng.router.Shard(i).Index().Params().Buckets, index.DefaultBuckets/width; got != want {
				t.Fatalf("width %d: shard %d has %d index buckets, want %d", width, i, got, want)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	one, four := stats[1], stats[4]
	if one.RawBytes != four.RawBytes || one.Lines != four.Lines {
		t.Fatalf("widths hold different data: %+v vs %+v", one, four)
	}
	if d := float64(four.CompressedBytes)/float64(one.CompressedBytes) - 1; d > 0.03 || d < -0.03 {
		t.Fatalf("width 4 compresses to %d bytes, width 1 to %d: %+.1f %%, want within 3 %%",
			four.CompressedBytes, one.CompressedBytes, 100*d)
	}
	stored := func(st Stats) float64 {
		return float64(st.CompressedBytes+uint64(st.IndexMemoryBytes)) / float64(st.RawBytes)
	}
	t.Logf("stored bytes per raw byte: width 1 %.3f, width 4 %.3f", stored(one), stored(four))
	if stored(four) > 1.15*stored(one) {
		t.Fatalf("width 4 stores %.3f bytes per raw byte, width 1 %.3f: want at most 1.15x", stored(four), stored(one))
	}

	eng := Open(Config{IndexBuckets: 1024, Shards: 4})
	defer eng.Close()
	for i := 0; i < 4; i++ {
		if got := eng.router.Shard(i).Index().Params().Buckets; got != 1024 {
			t.Fatalf("explicit IndexBuckets: shard %d has %d buckets, want 1024", i, got)
		}
	}
}
