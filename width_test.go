package mithrilog

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mithrilog/internal/core"
)

// parseCounts reads the per-shard parse-stage observation counts from a
// fleet's federated exposition; a shard with no observation yet has no
// series and counts 0.
func parseCounts(t *testing.T, eng *Engine) []float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	eng.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	re := regexp.MustCompile(`(?m)^mithrilog_search_stage_seconds_count\{stage="parse",shard="(\d+)"\} (\S+)$`)
	out := make([]float64, eng.Shards())
	for _, m := range re.FindAllStringSubmatch(rec.Body.String(), -1) {
		shard, _ := strconv.Atoi(m[1])
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		out[shard] = v
	}
	return out
}

// TestParseTimeOnHomeShard pins where a fleet records a query's parse
// time: on the query's home shard, once, whichever search call parsed it.
func TestParseTimeOnHomeShard(t *testing.T) {
	eng := Open(Config{Shards: 4})
	tenant := ""
	for i := 0; tenant == ""; i++ {
		if name := fmt.Sprintf("tenant-%d", i); eng.router.ShardFor(name) != eng.router.ShardFor("") {
			tenant = name
		}
	}
	if err := eng.IngestTenant(tenant, [][]byte{[]byte(tenant + " parse probe")}); err != nil {
		t.Fatal(err)
	}
	home := eng.router.ShardFor(tenant)
	for _, search := range []func() error{
		func() error { _, err := eng.Search("probe", SearchOptions{Tenant: tenant}); return err },
		func() error { _, _, err := eng.TraceSearch("probe", SearchOptions{Tenant: tenant}); return err },
	} {
		before := parseCounts(t, eng)
		if err := search(); err != nil {
			t.Fatal(err)
		}
		for shard, n := range parseCounts(t, eng) {
			want := before[shard]
			if shard == home {
				want++
			}
			if n != want {
				t.Errorf("shard %d: %v parse observations, want %v (home shard %d)", shard, n, want, home)
			}
		}
	}
}

// gateWriter holds its first Write until release is closed, so a
// WriteSegments is provably in flight.
type gateWriter struct {
	buf              bytes.Buffer
	started, release chan struct{}
	once             sync.Once
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return w.buf.Write(p)
}

// TestCloseDrainsAndRefuses holds one rule at widths 1 and 4: Close waits
// for an in-flight WriteSegments, whose stream then reopens with every
// line written before Close, pending lines included; Close flushes; and
// after Close every operation fails with ErrClosed.
func TestCloseDrainsAndRefuses(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lines := append(seqLines("svc", 200, 1), seqLines("acme", 60, 2)...)
			eng := Open(Config{Shards: shards})
			if err := eng.IngestLines(lines[:200]); err != nil {
				t.Fatal(err)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := eng.IngestLines(lines[200:]); err != nil { // left pending
				t.Fatal(err)
			}

			w := &gateWriter{started: make(chan struct{}), release: make(chan struct{})}
			written := make(chan error, 1)
			go func() { written <- eng.WriteSegments(w) }()
			<-w.started
			closed := make(chan error, 1)
			go func() { closed <- eng.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) while WriteSegments was in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(w.release)
			if err := <-written; err != nil {
				t.Fatal(err)
			}
			if err := <-closed; err != nil {
				t.Fatal(err)
			}

			re, err := Reopen(Config{Shards: shards}, &w.buf)
			if err != nil {
				t.Fatal(err)
			}
			res, err := re.Search("svc OR acme", SearchOptions{CollectLines: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedStrings(res.Lines), sortedStrings(lines); !equalLines(got, want) {
				t.Fatalf("reopened engine lost lines written before Close (first diff: %s)", firstDiff(got, want))
			}

			// Close flushes what is pending, then refuses.
			eng = Open(Config{Shards: shards})
			if err := eng.IngestLines(lines); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if n := eng.Stats().Lines; n != uint64(len(lines)) {
				t.Fatalf("Close left %d of %d lines unflushed", uint64(len(lines))-n, len(lines))
			}
			if err := eng.WriteSegments(&bytes.Buffer{}); !errors.Is(err, ErrClosed) {
				t.Fatalf("WriteSegments after Close: %v, want ErrClosed", err)
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestWidthOneContract pins what a one-shard engine — Config{} or
// Config{Shards: 1} — shows that a fleet does not: no tenant quota, an
// unlabeled /metrics, the full span tree in a trace, and a bare engine
// stream from WriteSegments, which core.ReopenEngine reads and a
// four-shard Reopen refuses.
func TestWidthOneContract(t *testing.T) {
	for _, cfg := range []Config{{}, {Shards: 1}, {Shards: 1, CacheBytes: 1 << 20}} {
		eng := Open(cfg)
		if err := eng.IngestTenant("acme", [][]byte{[]byte("acme job done"), []byte("acme job failed")}); err != nil {
			t.Fatal(err)
		}
		if eng.TenantLimiter() != nil {
			t.Errorf("%+v: a single engine has a tenant quota", cfg)
		}
		for _, tenant := range []string{"", "acme"} {
			res, tr, err := eng.TraceSearch("job", SearchOptions{Tenant: tenant, CollectLines: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != 2 || res.ShardsQueried != 1 || !equalLines(res.Lines, []string{"acme job done", "acme job failed"}) {
				t.Errorf("%+v tenant %q: %+v", cfg, tenant, res)
			}
			var stages []string
			for _, c := range tr.Children {
				stages = append(stages, c.Name)
			}
			if got := strings.Join(stages, ","); got != "parse,flush,index probe,configure,page scan" && got != "parse,index probe,configure,page scan" {
				t.Errorf("%+v tenant %q: trace stages %s", cfg, tenant, got)
			}
			if _, fleet := tr.Attrs["shards_queried"]; fleet {
				t.Errorf("%+v: a single engine's trace carries fleet attributes %v", cfg, tr.Attrs)
			}
		}
		rec := httptest.NewRecorder()
		eng.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if body := rec.Body.String(); strings.Contains(body, `shard="`) || !strings.Contains(body, "mithrilog_ingest_lines_total 2") {
			t.Errorf("%+v: /metrics is not one engine's unlabeled exposition", cfg)
		}
		var buf bytes.Buffer
		if err := eng.WriteSegments(&buf); err != nil {
			t.Fatal(err)
		}
		bare, err := core.ReopenEngine(core.Config{}, bytes.NewReader(buf.Bytes()))
		if err != nil || bare.Lines() != 2 {
			t.Fatalf("%+v: core.ReopenEngine on the stream: %v", cfg, err)
		}
		if _, err := Reopen(Config{Shards: 4}, bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%+v: a four-shard Reopen accepted a bare engine stream", cfg)
		}
	}
}
