package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"mithrilog"
)

func newShardedServer(t *testing.T, cfg mithrilog.Config) (*httptest.Server, *mithrilog.Engine) {
	t.Helper()
	if cfg.Shards < 2 {
		cfg.Shards = 4
	}
	eng := mithrilog.Open(cfg)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(func() {
		ts.Close()
		_ = eng.Close()
	})
	return ts, eng
}

// TestShardedIngestSearchCycle runs the basic cycle against a 4-shard
// fleet: tenant-tagged ingest, tenant-routed and scatter queries, and
// the shard fields in the response.
func TestShardedIngestSearchCycle(t *testing.T) {
	ts, _ := newShardedServer(t, mithrilog.Config{})
	post(t, ts.URL+"/ingest?tenant=acme", "acme alpha event\nacme beta event\n")
	post(t, ts.URL+"/ingest", "free alpha event\n")

	// Scatter: both tenants' lines, all shards queried.
	var sr searchResponse
	if code := get(t, ts.URL+"/search?q="+url.QueryEscape("alpha AND event"), &sr); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	if sr.Matches != 2 || sr.ShardsQueried != 4 || sr.Partial {
		t.Fatalf("scatter: %+v", sr)
	}

	// Tenant-routed: only acme's line, one shard.
	var tr searchResponse
	if code := get(t, ts.URL+"/search?q="+url.QueryEscape("alpha AND event")+"&tenant=acme", &tr); code != http.StatusOK {
		t.Fatalf("tenant search status %d", code)
	}
	if tr.Matches != 1 || tr.ShardsQueried != 1 {
		t.Fatalf("tenant search: %+v", tr)
	}
	if len(tr.Lines) != 1 || !strings.HasPrefix(tr.Lines[0], "acme alpha") {
		t.Fatalf("tenant search lines: %v", tr.Lines)
	}
}

// TestLimitedLinesIndependentOfWidth feeds the same lines to a single
// engine and a 4-shard fleet: a limited /search, /trace and /grep must
// return the same lines from both — the smallest matching lines in byte
// order — and count every match.
func TestLimitedLinesIndependentOfWidth(t *testing.T) {
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("node%03d job %d done", (i*37)%200, i%13))
	}
	single, _ := newTestServer(t)
	fleet, _ := newShardedServer(t, mithrilog.Config{})
	for _, ts := range []*httptest.Server{single, fleet} {
		post(t, ts.URL+"/ingest", strings.Join(lines, "\n"))
	}
	want := append([]string(nil), lines...)
	sort.Strings(want)
	want = want[:5]
	for _, path := range []string{
		"/search?q=job&limit=5",
		"/trace?q=job&limit=5",
		"/grep?limit=5&e=" + url.QueryEscape(` job \d+ `),
	} {
		var got [2]searchResponse
		for i, ts := range []*httptest.Server{single, fleet} {
			var code int
			if strings.HasPrefix(path, "/trace") {
				var tr traceResponse
				code = get(t, ts.URL+path, &tr)
				got[i] = tr.Result
			} else {
				code = get(t, ts.URL+path, &got[i])
			}
			if code != http.StatusOK {
				t.Fatalf("%s: status %d", path, code)
			}
			if got[i].Matches != len(lines) {
				t.Fatalf("%s: %d matches, want %d", path, got[i].Matches, len(lines))
			}
		}
		if strings.Join(got[0].Lines, "\n") != strings.Join(got[1].Lines, "\n") {
			t.Errorf("%s: single engine %q, fleet %q", path, got[0].Lines, got[1].Lines)
		}
		if strings.Join(got[0].Lines, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: lines %q, want %q", path, got[0].Lines, want)
		}
	}
}

// TestShardedGrepAndTrace covers the remaining search-shaped endpoints
// on a fleet.
func TestShardedGrepAndTrace(t *testing.T) {
	ts, _ := newShardedServer(t, mithrilog.Config{})
	post(t, ts.URL+"/ingest?tenant=acme", "job 123 done\njob abc done\n")

	var gr searchResponse
	if code := get(t, ts.URL+"/grep?e="+url.QueryEscape(`job \d+`)+"&tenant=acme", &gr); code != http.StatusOK {
		t.Fatalf("grep status %d", code)
	}
	if gr.Matches != 1 || gr.ShardsQueried != 1 {
		t.Fatalf("tenant grep: %+v", gr)
	}

	var tr traceResponse
	if code := get(t, ts.URL+"/trace?q=job", &tr); code != http.StatusOK {
		t.Fatalf("trace status %d", code)
	}
	if tr.Result.ShardsQueried != 4 {
		t.Fatalf("trace scatter width: %+v", tr.Result)
	}
	attrs := tr.Trace.Attrs
	if attrs["shards_queried"] != "4" {
		t.Fatalf("trace span missing fleet attrs: %v", attrs)
	}
}

// TestShardedTenantQuota429 exhausts one tenant's quota out-of-band and
// checks the HTTP mapping: quota rejection is 429, like a full queue.
func TestShardedTenantQuota429(t *testing.T) {
	ts, eng := newShardedServer(t, mithrilog.Config{TenantInFlight: 1})
	post(t, ts.URL+"/ingest?tenant=acme", "acme payload line\n")

	release, err := eng.TenantLimiter().Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	var er errorResponse
	if code := get(t, ts.URL+"/search?q=payload&tenant=acme", &er); code != http.StatusTooManyRequests {
		t.Fatalf("quota-exhausted search status %d (%+v)", code, er)
	}
	// Another tenant is unaffected.
	var sr searchResponse
	if code := get(t, ts.URL+"/search?q=payload&tenant=other", &sr); code == http.StatusTooManyRequests {
		t.Fatal("other tenant hit acme's quota")
	}
}

// TestShardedStatsAndMetrics checks the fleet fields in /stats and the
// shard-labeled federation in /metrics.
func TestShardedStatsAndMetrics(t *testing.T) {
	ts, _ := newShardedServer(t, mithrilog.Config{})
	var lines []string
	for i := 0; i < 64; i++ {
		lines = append(lines, fmt.Sprintf("metric probe line %d", i))
	}
	post(t, ts.URL+"/ingest", strings.Join(lines, "\n"))
	post(t, ts.URL+"/flush", "")

	var st statsResponse
	if code := get(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Shards != 4 || st.Lines != 64 {
		t.Fatalf("stats: %+v", st)
	}
	if st.SealedSegments+st.ActiveSegments == 0 {
		t.Fatalf("stats reports no segments: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, want := range []string{
		`mithrilog_router_queries_total`,
		`mithrilog_storage_pages{shard="0"}`,
		`mithrilog_storage_pages{shard="3"}`,
		`mithrilog_http_requests_total`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	// The federation must emit each family header once, not per shard.
	if n := strings.Count(body, "# TYPE mithrilog_storage_pages "); n != 1 {
		t.Errorf("TYPE header for mithrilog_storage_pages appears %d times", n)
	}
}
