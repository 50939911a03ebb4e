package server

import (
	"net/http"
	"testing"

	"mithrilog"
)

// TestShardedTenantTrace checks that a tenant-routed /trace on a fleet
// shows the same stage tree as a single engine, plus the fleet shape.
func TestShardedTenantTrace(t *testing.T) {
	ts, _ := newShardedServer(t, mithrilog.Config{})
	post(t, ts.URL+"/ingest?tenant=acme", "acme job 1 done\nacme job 2 failed\n")
	post(t, ts.URL+"/ingest", "other job 3 done\n")

	var tr traceResponse
	if code := get(t, ts.URL+"/trace?q=acme+AND+job&tenant=acme", &tr); code != http.StatusOK {
		t.Fatalf("trace status %d", code)
	}
	if tr.Result.Matches != 2 || tr.Result.ShardsQueried != 1 {
		t.Fatalf("tenant trace result: %+v", tr.Result)
	}
	stages := map[string]bool{}
	for _, c := range tr.Trace.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"parse", "index probe", "configure", "page scan"} {
		if !stages[want] {
			t.Errorf("tenant trace missing stage %q (got %v)", want, stages)
		}
	}
	if a := tr.Trace.Attrs; a["matches"] != "2" || a["shards_queried"] != "1" || a["tenant"] != "acme" {
		t.Errorf("tenant trace root attrs: %v", a)
	}
}
