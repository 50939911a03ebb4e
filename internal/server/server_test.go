package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"mithrilog"
)

func newTestServer(t *testing.T) (*httptest.Server, *mithrilog.Engine) {
	t.Helper()
	eng := mithrilog.Open(mithrilog.Config{})
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func get(t *testing.T, rawURL string, into interface{}) int {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode
}

func TestIngestSearchCycle(t *testing.T) {
	ts, _ := newTestServer(t)
	body := "alpha event one\nbeta event two\nalpha event three\n"
	resp, _ := post(t, ts.URL+"/ingest", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var sr searchResponse
	if code := get(t, ts.URL+"/search?q="+url.QueryEscape("alpha AND event"), &sr); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	if sr.Matches != 2 || len(sr.Lines) != 2 {
		t.Fatalf("search: %+v", sr)
	}
	if !sr.Offloaded {
		t.Fatal("expected accelerator offload")
	}
	if sr.SimElapsedNs <= 0 {
		t.Fatal("timing missing")
	}
}

// TestSearchReportsEffectiveGBps holds /search's effectiveGBps to the
// facade's §7.4.2 figure for the same query: the dataset's raw bytes over
// the simulated time, not over the host's wall clock.
func TestSearchReportsEffectiveGBps(t *testing.T) {
	ts, eng := newTestServer(t)
	post(t, ts.URL+"/ingest", "alpha event one\nbeta event two\nalpha event three\n")
	post(t, ts.URL+"/flush", "")
	var sr searchResponse
	if code := get(t, ts.URL+"/search?q=alpha&limit=0", &sr); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	res, err := eng.Search("alpha", mithrilog.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.EffectiveGBps <= 0 || sr.EffectiveGBps != res.EffectiveGBps {
		t.Errorf("/search effectiveGBps %v, facade %v for the same query", sr.EffectiveGBps, res.EffectiveGBps)
	}
}

func TestSearchLimitAndNoIndex(t *testing.T) {
	ts, _ := newTestServer(t)
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("needle item %d", i))
	}
	post(t, ts.URL+"/ingest", strings.Join(lines, "\n"))
	var sr searchResponse
	get(t, ts.URL+"/search?q=needle&limit=5&noindex=1", &sr)
	if sr.Matches != 50 || len(sr.Lines) != 5 {
		t.Fatalf("limit: %+v", sr)
	}
	if sr.UsedIndex {
		t.Fatal("noindex ignored")
	}
	// limit=0 returns counts only (fresh struct: omitempty fields are not
	// cleared by json.Decode).
	var countOnly searchResponse
	get(t, ts.URL+"/search?q=needle&limit=0", &countOnly)
	if countOnly.Matches != 50 || len(countOnly.Lines) != 0 {
		t.Fatalf("limit=0: %+v", countOnly)
	}
}

func TestGrep(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/ingest", "job 123 done\njob abc done\n")
	var sr searchResponse
	if code := get(t, ts.URL+"/grep?e="+url.QueryEscape(`job \d+`), &sr); code != http.StatusOK {
		t.Fatalf("grep status %d", code)
	}
	if sr.Matches != 1 {
		t.Fatalf("grep: %+v", sr)
	}
	var er errorResponse
	if code := get(t, ts.URL+"/grep?e="+url.QueryEscape(`(bad`), &er); code != http.StatusBadRequest {
		t.Fatalf("bad pattern status %d", code)
	}
}

func TestSnapshotAndRangeSearch(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/ingest", "early alpha\nearly alpha two")
	cut := time.Now().UTC()
	resp, err := http.Post(ts.URL+"/snapshot?time="+url.QueryEscape(cut.Format(time.RFC3339)), "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	post(t, ts.URL+"/ingest", "late alpha three")
	post(t, ts.URL+"/flush", "")
	var sr searchResponse
	get(t, ts.URL+"/search?q=alpha&to="+url.QueryEscape(cut.Format(time.RFC3339)), &sr)
	if sr.Matches != 2 {
		t.Fatalf("range search: %+v", sr)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/ingest", strings.Repeat("some log line content here\n", 200))
	post(t, ts.URL+"/flush", "")
	var st statsResponse
	get(t, ts.URL+"/stats", &st)
	if st.Lines != 200 || st.RawBytes == 0 || st.DataPages == 0 {
		t.Fatalf("stats: %+v", st)
	}
	var sr searchResponse
	get(t, ts.URL+"/search?q=content", &sr)
	get(t, ts.URL+"/stats", &st)
	if st.QueriesServed != 1 {
		t.Fatalf("queries served = %d", st.QueriesServed)
	}
}

// TestIngestOversizeLine413 pins /ingest's answer to a batch holding a
// line too long for a data page: 413, no line of that batch stored, and
// the count of the request's lines that earlier 4096-line batches did
// store, so a client knows exactly what to resend.
func TestIngestOversizeLine413(t *testing.T) {
	tooLong := "toolong " + strings.Repeat("x", 4000)
	var prefix strings.Builder
	for i := 0; i < 4096; i++ {
		fmt.Fprintf(&prefix, "prefix line %d\n", i)
	}
	for _, shards := range []int{1, 4} {
		ts := httptest.NewServer(New(mithrilog.Open(mithrilog.Config{Shards: shards})))
		defer ts.Close()
		post(t, ts.URL+"/ingest", "base line\n")
		stats := func() uint64 {
			post(t, ts.URL+"/flush", "")
			var st statsResponse
			get(t, ts.URL+"/stats", &st)
			return st.Lines
		}
		for _, c := range []struct {
			body      string
			wantLines int
		}{
			{"okfirst\n" + tooLong + "\noklast\n", 0},
			{prefix.String() + "okfirst\n" + tooLong + "\noklast\n", 4096},
		} {
			before := stats()
			resp, body := post(t, ts.URL+"/ingest", c.body)
			var ir ingestResponse
			if err := json.Unmarshal(body, &ir); err != nil {
				t.Fatalf("shards=%d: decode %q: %v", shards, body, err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge || ir.Error == "" || ir.Lines != c.wantLines {
				t.Fatalf("shards=%d: status %d, response %+v; want 413 with lines=%d", shards, resp.StatusCode, ir, c.wantLines)
			}
			if after := stats(); after != before+uint64(c.wantLines) {
				t.Errorf("shards=%d: /stats lines %d -> %d, want +%d", shards, before, after, c.wantLines)
			}
		}
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/ingest", http.StatusMethodNotAllowed},
		{"GET", "/flush", http.StatusMethodNotAllowed},
		{"GET", "/snapshot", http.StatusMethodNotAllowed},
		{"GET", "/search", http.StatusBadRequest},                   // missing q
		{"GET", "/search?q=x&limit=-1", http.StatusBadRequest},      // bad limit
		{"GET", "/search?q=x&from=notatime", http.StatusBadRequest}, // bad time
		{"GET", "/search?q=" + url.QueryEscape("((("), http.StatusBadRequest},
		{"GET", "/grep", http.StatusBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}
	// Searching an empty engine is a client error, not a crash.
	var er errorResponse
	if code := get(t, ts.URL+"/search?q=x", &er); code != http.StatusBadRequest {
		t.Errorf("empty engine search status %d", code)
	}
	// Health always answers.
	var ok map[string]bool
	if code := get(t, ts.URL+"/healthz", &ok); code != http.StatusOK || !ok["ok"] {
		t.Error("healthz")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/ingest", strings.Repeat("metric probe line content\n", 300))
	post(t, ts.URL+"/flush", "")
	var sr searchResponse
	get(t, ts.URL+"/search?q=probe", &sr)
	if sr.Matches == 0 {
		t.Fatal("search found nothing; metrics assertions would be vacuous")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body := readAll(t, resp)
	// One representative series from each instrumented layer.
	for _, want := range []string{
		"# TYPE mithrilog_ingest_lines_total counter",
		"mithrilog_ingest_lines_total 300",
		"mithrilog_ingest_compressed_bytes_total",
		"mithrilog_search_queries_total{path=\"accelerated\"} 1",
		"mithrilog_search_stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"}",
		"mithrilog_search_stage_seconds_bucket{stage=\"scan\",le=\"+Inf\"}",
		"mithrilog_search_sim_seconds_total{component=\"stream\"}",
		"mithrilog_storage_page_reads_total{link=\"internal\"}",
		"mithrilog_storage_pages",
		"mithrilog_hwsim_pipeline_utilization{pipeline=\"0\"}",
		"mithrilog_hwsim_pipeline_wire_gbps 3.2",
		"mithrilog_hwsim_effective_filter_gbps",
		"mithrilog_http_requests_total{endpoint=\"/ingest\",code=\"200\"} 1",
		"mithrilog_http_request_seconds_bucket{endpoint=\"/search\"",
		"mithrilog_http_in_flight_requests",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/ingest", "alpha one\nbeta two\nalpha three\n")
	var tr traceResponse
	if code := get(t, ts.URL+"/trace?q=alpha", &tr); code != http.StatusOK {
		t.Fatalf("trace status %d", code)
	}
	if tr.Result.Matches != 2 {
		t.Fatalf("trace result: %+v", tr.Result)
	}
	if tr.Trace.Name != "search" || tr.Trace.DurationNs <= 0 {
		t.Fatalf("trace root: %+v", tr.Trace)
	}
	stages := map[string]bool{}
	for _, c := range tr.Trace.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"parse", "index probe", "configure", "page scan"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, stages)
		}
	}
	if tr.Trace.Attrs["matches"] != "2" || tr.Trace.Attrs["offloaded"] != "true" {
		t.Errorf("root attrs: %+v", tr.Trace.Attrs)
	}
	// Errors propagate like /search.
	var er errorResponse
	if code := get(t, ts.URL+"/trace", &er); code != http.StatusBadRequest {
		t.Errorf("missing q: status %d", code)
	}
	if code := get(t, ts.URL+"/trace?q="+url.QueryEscape("((("), &er); code != http.StatusBadRequest {
		t.Errorf("bad query: status %d", code)
	}
}

func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/ingest", strings.Repeat("warm data line\n", 100))
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					resp, err := http.Post(ts.URL+"/ingest", "text/plain",
						strings.NewReader(fmt.Sprintf("concurrent line %d %d\n", w, i)))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				} else {
					var sr searchResponse
					get(t, ts.URL+"/search?q=warm&limit=0", &sr)
					if sr.Matches < 100 {
						t.Errorf("lost data: %d", sr.Matches)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
