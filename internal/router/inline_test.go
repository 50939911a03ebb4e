package router

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mithrilog/internal/sched"
)

// goroutineID is the running goroutine's number from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestOneTargetScatterRunsInline pins that a query with one target — any
// query on a one-shard fleet, a tenant's query on a wider one — runs on
// the caller's goroutine, while a wide scatter runs each shard on its own.
func TestOneTargetScatterRunsInline(t *testing.T) {
	for _, c := range []struct {
		shards int
		tenant string
		inline bool
	}{
		{1, "", true},
		{1, "acme", true},
		{4, "acme", true},
		{4, "", false},
	} {
		r := newTestRouter(t, c.shards)
		caller := goroutineID()
		var mu sync.Mutex
		var ran []string
		g, err := scatter(context.Background(), r, c.tenant,
			func(context.Context, *sched.Scheduler) (int, error) {
				mu.Lock()
				ran = append(ran, goroutineID())
				mu.Unlock()
				return 1, nil
			},
			func(bool, int) {})
		if err != nil {
			t.Fatal(err)
		}
		if len(ran) != g.ShardsQueried {
			t.Fatalf("shards=%d tenant=%q: ran on %d shards, gather reports %d", c.shards, c.tenant, len(ran), g.ShardsQueried)
		}
		for _, id := range ran {
			if (id == caller) != c.inline {
				t.Errorf("shards=%d tenant=%q: shard ran on goroutine %s, caller %s, want inline=%v",
					c.shards, c.tenant, id, caller, c.inline)
			}
		}
	}
}
