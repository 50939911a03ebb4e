package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
	"time"
)

// fillStore appends n distinct payloads and returns them.
func fillStore(t *testing.T, s *SegmentStore, n int) [][]byte {
	t.Helper()
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("payload-%04d ", i))
		for len(p) < 100+i%300 {
			p = append(p, byte('a'+i%26))
		}
		if _, err := s.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		payloads = append(payloads, p)
	}
	return payloads
}

func TestSegmentStoreSealBoundaries(t *testing.T) {
	dev := New(Config{})
	s := NewSegmentStore(dev, 4)
	fillStore(t, s, 10) // 2 sealed segments of 4, active of 2

	st := s.Stats()
	if st.Sealed != 2 || st.SealedPages != 8 || st.Active != 1 || st.ActivePages != 2 {
		t.Fatalf("stats = %+v, want 2 sealed/8 pages, 1 active/2 pages", st)
	}
	s.Seal()
	st = s.Stats()
	if st.Sealed != 3 || st.Active != 0 || st.SealedPages != 10 {
		t.Fatalf("after Seal: stats = %+v", st)
	}
	// Sealing again is a no-op.
	s.Seal()
	if got := s.Stats(); got != st {
		t.Fatalf("double Seal changed stats: %+v -> %+v", st, got)
	}
	if recs := s.Records(); len(recs) != 10 {
		t.Fatalf("Records() = %d, want 10", len(recs))
	}
}

func TestSegmentStoreReopenRoundTrip(t *testing.T) {
	dev := New(Config{})
	s := NewSegmentStore(dev, 3)
	payloads := fillStore(t, s, 8)
	s.Seal()

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	dev2 := New(Config{})
	s2, err := OpenSegmentStore(dev2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs := s2.Records()
	if len(recs) != len(payloads) {
		t.Fatalf("reopened %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		page, err := dev2.View(Internal, r.Page)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page[:r.Len], payloads[i]) {
			t.Fatalf("record %d payload differs after reopen", i)
		}
		if crc32.ChecksumIEEE(page[:r.Len]) != r.CRC {
			t.Fatalf("record %d checksum mismatch after reopen", i)
		}
	}
	if got, want := s2.Stats(), (SegmentStats{Sealed: 3, SealedPages: 8}); got != want {
		t.Fatalf("reopened stats = %+v, want %+v", got, want)
	}
}

func TestSegmentStoreWriteRequiresSeal(t *testing.T) {
	dev := New(Config{})
	s := NewSegmentStore(dev, 4)
	fillStore(t, s, 2) // active, unsealed
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err == nil {
		t.Fatal("WriteTo with an unsealed active segment should fail")
	}
}

func TestSegmentStoreDetectsCorruption(t *testing.T) {
	dev := New(Config{})
	s := NewSegmentStore(dev, 3)
	fillStore(t, s, 7)
	s.Seal()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Every single-bit flip anywhere in the stream must be rejected (or, if
	// it lands in padding we do not have, still produce a verified store).
	// Checking all bits is too slow; probe a spread of positions.
	for pos := 0; pos < len(valid); pos += 97 {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x40
		if bytes.Equal(mut, valid) {
			continue
		}
		s2, err := OpenSegmentStore(New(Config{}), bytes.NewReader(mut))
		if err == nil {
			// The flip must have been caught by a checksum unless it kept
			// every invariant — verify everything it serves.
			verifyStore(t, s2)
		} else if !errors.Is(err, ErrSegmentCorrupt) && !errors.Is(err, ErrPageOverflow) {
			// Structured parse errors are fine; panics are the real failure
			// mode and would have crashed the test.
			t.Logf("flip at %d: %v", pos, err)
		}
	}

	// Truncations at every boundary must be rejected cleanly.
	for cut := 0; cut < len(valid); cut += 61 {
		if _, err := OpenSegmentStore(New(Config{}), bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// verifyStore asserts that everything a store serves passes its checksum.
func verifyStore(t *testing.T, s *SegmentStore) {
	t.Helper()
	for i, r := range s.Records() {
		page, err := s.dev.View(Internal, r.Page)
		if err != nil {
			t.Fatalf("record %d unreadable: %v", i, err)
		}
		if crc32.ChecksumIEEE(page[:r.Len]) != r.CRC {
			t.Fatalf("record %d served with failing checksum", i)
		}
	}
}

// TestSegmentStoreBoundaries pins the §6.3 time boundaries: a query time
// resolves to the page count of the newest boundary not after it (0 when
// there is none), times past the int64 nanosecond range order correctly,
// and WriteTo → OpenSegmentStore carries the table unchanged.
func TestSegmentStoreBoundaries(t *testing.T) {
	s := NewSegmentStore(New(Config{}), 4)
	t0 := time.Date(2021, 10, 18, 0, 0, 0, 0, time.UTC)
	fillStore(t, s, 5)
	s.Mark(t0)
	fillStore(t, s, 3)
	s.Mark(t0.Add(time.Hour))
	s.Mark(t0.Add(2 * time.Hour)) // nothing appended since the last mark
	fillStore(t, s, 2)
	s.Seal()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSegmentStore(New(Config{}), &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*SegmentStore{s, re} {
		for _, c := range []struct {
			at   time.Time
			want int
		}{
			{time.Time{}, 0},
			{t0.Add(-time.Nanosecond), 0},
			{t0, 5},
			{t0.Add(59 * time.Minute), 5},
			{t0.Add(time.Hour), 8},
			{t0.Add(3 * time.Hour), 8},
			{time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), 8},
		} {
			if got := st.PagesBefore(c.at); got != c.want {
				t.Errorf("PagesBefore(%v) = %d, want %d", c.at, got, c.want)
			}
		}
	}
	if !slices.Equal(re.bounds, s.bounds) {
		t.Fatalf("reopened boundaries %v, want %v", re.bounds, s.bounds)
	}
}
