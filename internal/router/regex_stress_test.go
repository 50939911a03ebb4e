package router

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mithrilog/internal/core"
	"mithrilog/internal/sched"
	"mithrilog/internal/storage"
)

// TestRegexStress is TestRouterStress for the regex datapath: concurrent
// multi-tenant ingest races scattered regex scans on both the
// literal-factor prefiltered path and the ∅-factor full-scan fallback,
// with fleet flushes mid-stress. CI runs the package
// under -race, and the goroutine check at the end demands a leak-free
// shutdown.
func TestRegexStress(t *testing.T) {
	before := runtime.NumGoroutine()

	r, err := New(Config{
		Shards:         4,
		Engine:         core.Config{Storage: storage.Config{SegmentPages: 8}},
		Sched:          sched.Config{MaxInFlight: 4, QueueDepth: 16},
		TenantInFlight: 8,
		ShardTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	tenants := []string{"", "acme", "globex", "initech"}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: each tenant streams batches until told to stop.
	for _, tenant := range tenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			batch := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				lines := make([][]byte, 32)
				for i := range lines {
					lines[i] = []byte(fmt.Sprintf("%s batch=%d line=%d level=INFO worker heartbeat", orAnon(tenant), batch, i))
				}
				if err := r.Ingest(tenant, lines); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("ingest %q: %v", tenant, err)
					return
				}
				batch++
				// Throttle: the fallback readers full-scan the whole store
				// per query, so unbounded ingest makes the test quadratic.
				time.Sleep(time.Millisecond)
			}
		}(tenant)
	}

	// Readers alternate a prefilterable pattern (bounded factors probe the
	// index and populate the page cache) with a factor-free one (full-scan
	// fallback), racing the writers. Admission rejections are expected
	// under this load; real failures are not.
	patterns := []string{` batch=7 line=1[89]`, `line=3[01]`}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := tenants[g%len(tenants)]
			pattern := patterns[g%len(patterns)]
			for i := 0; i < 20; i++ {
				res, err := r.SearchRegex(context.Background(), tenant, pattern,
					core.RegexOptions{CollectLines: g%2 == 0})
				if err != nil {
					if !errors.Is(err, sched.ErrQueueFull) &&
						!errors.Is(err, ErrTenantQuota) &&
						!errors.Is(err, core.ErrNothingIngested) &&
						!errors.Is(err, context.DeadlineExceeded) &&
						!errors.Is(err, ErrClosed) {
						t.Errorf("regex (tenant %q): %v", tenant, err)
						return
					}
					continue
				}
				if res.CandidatePages > res.TotalPages {
					t.Errorf("regex (tenant %q): %d candidates > %d pages", tenant, res.CandidatePages, res.TotalPages)
					return
				}
			}
		}(g)
	}

	// Flushes race the scans, sealing and indexing every shard's buffered
	// lines while prefiltered queries are mid-candidate-set.
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		if err := r.Flush(); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("flush: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Lines == 0 {
		t.Fatal("stress ingested nothing")
	}

	// goleak-style check: every goroutine the router's scatters spawned
	// must be gone. Allow the runtime a moment to reap finished ones.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}
