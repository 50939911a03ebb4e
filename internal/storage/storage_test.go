package storage

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAppendReadRoundTrip(t *testing.T) {
	d := New(Config{})
	data := bytes.Repeat([]byte("page-data "), 40)
	id, err := d.Append(data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.Read(External, id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:len(data)], data) {
		t.Fatal("page contents mismatch")
	}
	for _, b := range buf[len(data):] {
		if b != 0 {
			t.Fatal("page tail not zeroed")
		}
	}
}

func TestWriteShorterRezeroes(t *testing.T) {
	d := New(Config{})
	id, _ := d.Append(bytes.Repeat([]byte{0xff}, PageSize))
	if err := d.Write(id, []byte("short")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	_ = d.Read(Internal, id, buf)
	if string(buf[:5]) != "short" || buf[5] != 0 || buf[PageSize-1] != 0 {
		t.Fatal("rewrite did not zero the remainder")
	}
}

func TestErrors(t *testing.T) {
	d := New(Config{MaxPages: 1})
	big := make([]byte, PageSize+1)
	if _, err := d.Append(big); !errors.Is(err, ErrPageOverflow) {
		t.Errorf("oversize append: %v", err)
	}
	if _, err := d.Append(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(nil); !errors.Is(err, ErrDeviceFull) {
		t.Errorf("full device: %v", err)
	}
	if err := d.Read(Internal, 99, make([]byte, PageSize)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range read: %v", err)
	}
	if err := d.Write(99, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range write: %v", err)
	}
	if err := d.Read(Internal, 0, make([]byte, 10)); err == nil {
		t.Error("short buffer should fail")
	}
	if _, err := d.View(Internal, 99); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range view: %v", err)
	}
}

func TestLinkAccounting(t *testing.T) {
	d := New(Config{})
	id, _ := d.Append([]byte("x"))
	buf := make([]byte, PageSize)
	for i := 0; i < 3; i++ {
		_ = d.Read(Internal, id, buf)
	}
	_ = d.Read(External, id, buf)
	if _, err := d.View(Internal, id); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Internal.Reads != 4 || st.Internal.Bytes != 4*PageSize {
		t.Fatalf("internal stats %+v", st.Internal)
	}
	if st.External.Reads != 1 || st.External.Bytes != PageSize {
		t.Fatalf("external stats %+v", st.External)
	}
	if st.Writes != 1 || st.Pages != 1 {
		t.Fatalf("stats %+v", st)
	}
	d.ResetStats()
	st = d.Stats()
	if st.Internal.Reads != 0 || st.External.Reads != 0 || st.Writes != 0 {
		t.Fatal("ResetStats incomplete")
	}
	if st.Pages != 1 {
		t.Fatal("ResetStats must not drop pages")
	}
}

func TestTimingModel(t *testing.T) {
	d := New(Config{
		InternalBandwidth: 4.8e9,
		ExternalBandwidth: 3.1e9,
		ReadLatency:       100 * time.Microsecond,
	})
	// 1 GB over internal vs external: internal must be ~1.55x faster.
	gb := uint64(1 << 30)
	ti := d.TransferTime(Internal, gb)
	te := d.TransferTime(External, gb)
	ratio := float64(te) / float64(ti)
	if ratio < 1.5 || ratio > 1.6 {
		t.Fatalf("internal/external ratio %.3f, want ~1.55", ratio)
	}
	// Dependent accesses are latency-bound: 10k reads = 1 s.
	if got := d.DependentAccessTime(10000); got != time.Second {
		t.Fatalf("dependent time %v", got)
	}
	// Batch access is one latency plus streaming.
	if got := d.BatchAccessTime(Internal, 0); got != 0 {
		t.Fatalf("empty batch %v", got)
	}
	batch := d.BatchAccessTime(Internal, 256)
	if batch <= d.cfg.ReadLatency {
		t.Fatal("batch must include transfer time")
	}
	if batch > d.cfg.ReadLatency+d.TransferTime(Internal, 256*PageSize)+time.Microsecond {
		t.Fatal("batch too slow")
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{})
	cfg := d.Config()
	if cfg.InternalBandwidth != 4.8e9 || cfg.ExternalBandwidth != 3.1e9 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.ReadLatency != 100*time.Microsecond {
		t.Fatalf("latency default: %v", cfg.ReadLatency)
	}
	if Internal.String() != "internal" || External.String() != "external" {
		t.Fatal("link names")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New(Config{})
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := d.Append([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 200; i++ {
				id := ids[(w*31+i)%pages]
				if err := d.Read(Internal, id, buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != byte(id) {
					t.Errorf("page %d holds %d", id, buf[0])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := d.Stats().Internal.Reads; got != 8*200 {
		t.Fatalf("reads = %d", got)
	}
}

func TestFaultInjection(t *testing.T) {
	d := New(Config{})
	id, _ := d.Append([]byte("x"))
	injected := errors.New("boom")
	d.FailNextReads(2, injected)
	buf := make([]byte, PageSize)
	if err := d.Read(Internal, id, buf); !errors.Is(err, injected) {
		t.Fatalf("first read: %v", err)
	}
	if _, err := d.View(External, id); !errors.Is(err, injected) {
		t.Fatalf("second read: %v", err)
	}
	if err := d.Read(Internal, id, buf); err != nil {
		t.Fatalf("fault should be exhausted: %v", err)
	}
}
