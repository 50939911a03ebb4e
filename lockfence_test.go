package mithrilog

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockFence runs the engine's writers against its readers on one
// engine and on a cached four-shard fleet, so that `go test -race` sees
// every `// guarded by` field from both sides. Ingest, Flush and Snapshot
// write while Search (with and without a time range), SearchRegex, Stats
// and a MetricsHandler scrape read. Then Close runs while two goroutines
// are still searching, and each of their calls must return nil or
// ErrClosed.
func TestLockFence(t *testing.T) {
	for _, cfg := range []Config{{}, {Shards: 4, CacheBytes: 8 << 20}} {
		t.Run(fmt.Sprintf("shards=%d", max(cfg.Shards, 1)), func(t *testing.T) {
			lockFence(t, Open(cfg))
		})
	}
}

func lockFence(t *testing.T, eng *Engine) {
	base := time.Unix(1_700_000_000, 0)
	if err := eng.IngestLines(seqLines("svc", 256, 0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Snapshot(base); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for b := 1; b <= 12; b++ {
			lines := seqLines("svc", 64, b)
			batch := make([][]byte, len(lines))
			for i, l := range lines {
				batch[i] = []byte(l)
			}
			err := eng.IngestBytes(batch)
			if err == nil && b%3 == 0 {
				err = eng.Flush()
			}
			if err == nil && b%4 == 0 {
				err = eng.Snapshot(base.Add(time.Duration(b) * time.Second))
			}
			if err != nil {
				t.Errorf("writer, batch %d: %v", b, err)
				return
			}
		}
	}()
	readers := []func() error{
		func() error { _, err := eng.Search("failed", SearchOptions{CollectLines: true, Limit: 5}); return err },
		func() error {
			_, err := eng.Search("error OR retry", SearchOptions{From: base, To: base.Add(time.Hour)})
			return err
		},
		func() error { _, err := eng.SearchRegex(`node0[3-5] job`, false); return err },
		func() error { eng.Stats(); return nil },
		func() error {
			rec := httptest.NewRecorder()
			eng.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				return fmt.Errorf("scrape answered %d", rec.Code)
			}
			return nil
		},
	}
	for i, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if err := read(); err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Close while two goroutines are still searching.
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				_, err := eng.Search("failed", SearchOptions{})
				if n == 0 {
					started <- struct{}{}
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("searcher %d during Close: %v", i, err)
					return
				}
			}
		}()
	}
	<-started
	<-started
	if err := eng.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
}
