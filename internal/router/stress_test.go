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
	"mithrilog/internal/query"
	"mithrilog/internal/sched"
	"mithrilog/internal/storage"
)

// TestRouterStress drives concurrent multi-tenant ingest while
// scatter-gather and tenant-routed queries run, then shuts down and
// verifies no shard goroutine leaked. CI runs the package under -race,
// so this is also the router's data-race probe.
func TestRouterStress(t *testing.T) {
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
			}
		}(tenant)
	}

	// Readers: scatter and tenant-routed queries race the writers.
	// Admission rejections (queue full, tenant quota) are expected under
	// this load; real failures are not.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := tenants[g%len(tenants)]
			q := query.MustParse("heartbeat AND INFO")
			for i := 0; i < 40; i++ {
				_, err := r.Search(context.Background(), tenant, q, core.SearchOptions{CollectLines: g%2 == 0})
				if err != nil &&
					!errors.Is(err, sched.ErrQueueFull) &&
					!errors.Is(err, ErrTenantQuota) &&
					!errors.Is(err, core.ErrNothingIngested) &&
					!errors.Is(err, context.DeadlineExceeded) &&
					!errors.Is(err, ErrClosed) {
					t.Errorf("search (tenant %q): %v", tenant, err)
					return
				}
			}
		}(g)
	}

	// A stats reader: every shard is read in one snapshot, so no flush can
	// land between a shard's compressed bytes and its page count.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := r.Stats()
			if limit := uint64(st.DataPages) * storage.PageSize; st.CompressedBytes > limit {
				t.Errorf("stats: %d compressed bytes in %d pages (%d bytes)", st.CompressedBytes, st.DataPages, limit)
				return
			}
			if st.IndexMemoryBytes <= 0 {
				t.Errorf("stats: index footprint %d", st.IndexMemoryBytes)
				return
			}
		}
	}()

	// Let writers and readers overlap, with periodic flushes making data
	// visible mid-stress.
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

func orAnon(tenant string) string {
	if tenant == "" {
		return "anon"
	}
	return tenant
}
