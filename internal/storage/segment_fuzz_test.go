package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"
)

// FuzzSegmentReopen feeds arbitrary bytes to OpenSegmentStore and asserts
// the safety properties of the reopen path: it never panics, and when it
// accepts a stream, every record it would serve passes its checksum and
// its time boundaries are in page order and within the record count. The
// seed corpus covers the interesting neighborhood: a valid stream with
// boundaries, bit-flipped variants (header, manifest, boundary table,
// payload, checksum positions), and truncations at structural boundaries.
func FuzzSegmentReopen(f *testing.F) {
	valid := buildValidStream(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MLSEGMET"))
	// Bit flips across the stream: magic, version, counts, payload, CRCs.
	for _, pos := range []int{0, 4, 11, 12, 16, 20, 40, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		if pos < 0 || pos >= len(valid) {
			continue
		}
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x01
		f.Add(mut)
	}
	// Truncations: mid-length-prefix, mid-meta, mid-segment, mid-payload.
	for _, cut := range []int{1, 3, 4, 10, 30, len(valid) / 3, len(valid) / 2, len(valid) - 4, len(valid) - 1} {
		if cut > 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	// An absurd length prefix must be bounded, not allocated.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	// A flip in the time-boundary table, just before the meta checksum.
	mut := append([]byte(nil), valid...)
	mut[metaEnd(valid)-6] ^= 0x01
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		dev := New(Config{MaxPages: 4096})
		s, err := OpenSegmentStore(dev, bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly: the property we want
		}
		recs := s.Records()
		for i, b := range s.bounds {
			if int(b.pages) > len(recs) || (i > 0 && b.pages < s.bounds[i-1].pages) {
				t.Fatalf("accepted store has boundary %d at page %d of %d, after %v", i, b.pages, len(recs), s.bounds[:i])
			}
		}
		for i, r := range recs {
			page, verr := dev.View(Internal, r.Page)
			if verr != nil {
				t.Fatalf("accepted store serves unreadable record %d: %v", i, verr)
			}
			if int(r.Len) > len(page) {
				t.Fatalf("accepted store record %d overruns its page", i)
			}
			if crc32.ChecksumIEEE(page[:r.Len]) != r.CRC {
				t.Fatalf("accepted store serves record %d with failing checksum", i)
			}
		}
	})
}

// buildValidStream serializes a small multi-segment store with two time
// boundaries.
func buildValidStream(f *testing.F) []byte {
	f.Helper()
	dev := New(Config{})
	s := NewSegmentStore(dev, 3)
	for i := 0; i < 7; i++ {
		line := bytes.Repeat([]byte{byte('a' + i)}, 80+i*13)
		if _, err := s.Append(line); err != nil {
			f.Fatal(err)
		}
		if i == 1 || i == 4 {
			s.Mark(time.Unix(1_700_000_000+int64(i), 0))
		}
	}
	s.Seal()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// metaEnd is the stream offset just past the length-prefixed meta blob.
func metaEnd(stream []byte) int {
	return 4 + int(binary.LittleEndian.Uint32(stream))
}
