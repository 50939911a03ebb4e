package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mithrilog/internal/core"
	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

func newTestRouter(t *testing.T, shards int) *Router {
	t.Helper()
	r, err := New(Config{
		Shards: shards,
		Engine: core.Config{Storage: storage.Config{SegmentPages: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func tenantLines(tenant string, n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, []byte(fmt.Sprintf("%s request id=%d status=ok latency=%dus", tenant, i, 100+i)))
	}
	return out
}

// sortedStrings renders lines sorted, for order-insensitive comparison.
func sortedStrings(lines [][]byte) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	sort.Strings(out)
	return out
}

func TestTenantPlacement(t *testing.T) {
	r := newTestRouter(t, 4)
	for _, tenant := range []string{"acme", "globex", "initech", "umbrella"} {
		if err := r.Ingest(tenant, tenantLines(tenant, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every tenant's lines live on its home shard and nowhere else.
	for _, tenant := range []string{"acme", "globex", "initech", "umbrella"} {
		home := r.ShardFor(tenant)
		for i := 0; i < r.NumShards(); i++ {
			q := query.MustParse(tenant)
			res, err := r.Shard(i).Search(q, core.SearchOptions{})
			if i == home {
				if err != nil {
					t.Fatalf("tenant %s home shard %d: %v", tenant, home, err)
				}
				if res.Matches != 50 {
					t.Fatalf("tenant %s home shard %d: %d matches, want 50", tenant, home, res.Matches)
				}
			} else if err == nil && res.Matches != 0 {
				t.Fatalf("tenant %s leaked onto shard %d (%d matches)", tenant, i, res.Matches)
			}
		}
	}
}

func TestUntenantedStriping(t *testing.T) {
	r := newTestRouter(t, 4)
	if err := r.Ingest("", tenantLines("anon", 400)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumShards(); i++ {
		if n := r.Shard(i).Lines(); n != 100 {
			t.Fatalf("shard %d carries %d lines, want 100 (round-robin stripe)", i, n)
		}
	}
	if st := r.Stats(); st.Lines != 400 {
		t.Fatalf("fleet lines = %d, want 400", st.Lines)
	}
}

func TestScatterGatherMergesAllShards(t *testing.T) {
	r := newTestRouter(t, 4)
	ds := loggen.Generate(loggen.BGL2, 2000, 0)
	if err := r.Ingest("", ds.Lines); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("RAS AND KERNEL")
	want := 0
	for _, l := range ds.Lines {
		if q.Match(string(l)) {
			want++
		}
	}
	res, err := r.Search(context.Background(), "", q, core.SearchOptions{CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Failed) != 0 {
		t.Fatalf("unexpected partial result: %+v", res.Failed)
	}
	if res.ShardsQueried != 4 {
		t.Fatalf("ShardsQueried = %d, want 4", res.ShardsQueried)
	}
	if res.Matches != want || len(res.Lines) != want {
		t.Fatalf("matches = %d (lines %d), want %d", res.Matches, len(res.Lines), want)
	}
	// Merged lines are in canonical order.
	for i := 1; i < len(res.Lines); i++ {
		if bytes.Compare(res.Lines[i-1], res.Lines[i]) > 0 {
			t.Fatalf("merged lines not in canonical order at %d", i)
		}
	}
}

func TestTenantQueryRoutesToOneShard(t *testing.T) {
	r := newTestRouter(t, 4)
	if err := r.Ingest("acme", tenantLines("acme", 80)); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("globex", tenantLines("globex", 80)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Search(context.Background(), "acme", query.MustParse("request"), core.SearchOptions{CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsQueried != 1 {
		t.Fatalf("tenant query scattered to %d shards", res.ShardsQueried)
	}
	if res.Matches != 80 {
		t.Fatalf("matches = %d, want 80 (only acme's shard)", res.Matches)
	}
	for _, l := range res.Lines {
		if !strings.HasPrefix(string(l), "acme ") {
			t.Fatalf("tenant query returned foreign line %q", l)
		}
	}
}

func TestEmptyShardsAreNotFailures(t *testing.T) {
	r := newTestRouter(t, 4)
	// One tenant only: its home shard has data, the other three are empty.
	if err := r.Ingest("acme", tenantLines("acme", 60)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Search(context.Background(), "", query.MustParse("request"), core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("empty shards reported as partial failure")
	}
	if res.EmptyShards != 3 {
		t.Fatalf("EmptyShards = %d, want 3", res.EmptyShards)
	}
	if res.Matches != 60 {
		t.Fatalf("matches = %d, want 60", res.Matches)
	}
	// A fully empty fleet behaves like an empty engine.
	r2 := newTestRouter(t, 3)
	if _, err := r2.Search(context.Background(), "", query.MustParse("x"), core.SearchOptions{}); !errors.Is(err, core.ErrNothingIngested) {
		t.Fatalf("empty fleet err = %v, want ErrNothingIngested", err)
	}
}

// TestPartialFailureSemantics runs the gather's outcome table through
// both query kinds, which share one scatter-gather: a query answers as
// long as one shard does (or none failed), reports the shards that did
// not, and errors only when no shard answered and none was merely empty.
func TestPartialFailureSemantics(t *testing.T) {
	broken := errors.New("uncorrectable ECC")
	// view is what the two merged result kinds have in common.
	type view struct {
		Gather
		matches, lines int
		flags          bool // Offloaded && UsedIndex, or Prefiltered
	}
	kinds := []struct {
		name string
		run  func(*Router) (view, error)
	}{
		{"token", func(r *Router) (view, error) {
			res, err := r.Search(context.Background(), "", query.MustParse("request"), core.SearchOptions{CollectLines: true})
			return view{res.Gather, res.Matches, len(res.Lines), res.Offloaded && res.UsedIndex}, err
		}},
		{"regex", func(r *Router) (view, error) {
			res, err := r.SearchRegex(context.Background(), "", ` request id=[0-9]+ `, core.RegexOptions{CollectLines: true})
			return view{res.Gather, res.Matches, len(res.Lines), res.Prefiltered}, err
		}},
	}
	rows := []struct {
		name    string
		tenant  string // ingest placement: "" stripes over all four shards
		lines   int
		fail    []int // shards whose device breaks
		wantErr error
		want    view
	}{
		{name: "all ok", lines: 400,
			want: view{Gather{ShardsQueried: 4}, 400, 400, true}},
		{name: "some failed", lines: 400,
			fail: []int{2},
			want: view{Gather{ShardsQueried: 4, Partial: true}, 300, 300, true}},
		{name: "all empty", lines: 0,
			wantErr: core.ErrNothingIngested},
		{name: "all failed", lines: 400,
			fail:    []int{0, 1, 2, 3},
			wantErr: broken},
		// The one shard with data fails and the rest are empty: nobody
		// answered, but an empty shard is not a failure, so the query
		// reports a partial, matchless result instead of an error.
		{name: "empty and failed, none ok", tenant: "acme", lines: 60,
			fail: []int{shardIndex("acme", 4)},
			want: view{Gather{ShardsQueried: 4, Partial: true, EmptyShards: 3}, 0, 0, false}},
	}
	for _, row := range rows {
		for _, kind := range kinds {
			t.Run(row.name+"/"+kind.name, func(t *testing.T) {
				r := newTestRouter(t, 4)
				if row.lines > 0 {
					if err := r.Ingest(row.tenant, tenantLines("anon", row.lines)); err != nil {
						t.Fatal(err)
					}
					if err := r.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				failed := row.fail
				for _, si := range failed {
					r.Shard(si).Device().FailNextReads(1000, broken)
				}
				got, err := kind.run(r)
				if row.wantErr != nil {
					if !errors.Is(err, row.wantErr) {
						t.Fatalf("err = %v, want %v", err, row.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatalf("a gather with an answering or empty shard must not fail the query: %v", err)
				}
				if len(got.Failed) != len(failed) {
					t.Fatalf("failed = %+v, want shards %v", got.Failed, failed)
				}
				for i, f := range got.Failed {
					if f.Shard != failed[i] || !errors.Is(f.Err, broken) {
						t.Fatalf("failed[%d] = %+v, want shard %d with the wrapped device error", i, f, failed[i])
					}
				}
				got.Failed = nil
				if !reflect.DeepEqual(got, row.want) {
					t.Fatalf("got %+v, want %+v", got, row.want)
				}
			})
		}
	}
}

func TestTenantQuotaAtRouter(t *testing.T) {
	r, err := New(Config{Shards: 2, TenantInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Ingest("acme", tenantLines("acme", 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// Exhaust the tenant's quota out-of-band, then observe the rejection.
	rel1, err := r.Limiter().Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := r.Limiter().Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Search(context.Background(), "acme", query.MustParse("request"), core.SearchOptions{}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("err = %v, want ErrTenantQuota", err)
	}
	// Other tenants are unaffected; release restores service.
	if _, err := r.Search(context.Background(), "", query.MustParse("request"), core.SearchOptions{}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	rel1()
	rel2()
	if _, err := r.Search(context.Background(), "acme", query.MustParse("request"), core.SearchOptions{}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestRouterClose(t *testing.T) {
	r := newTestRouter(t, 2)
	if err := r.Ingest("", tenantLines("anon", 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if err := r.Ingest("", tenantLines("anon", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v", err)
	}
	if _, err := r.Search(context.Background(), "", query.MustParse("x"), core.SearchOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("search after close: %v", err)
	}
}

func TestRegexScatter(t *testing.T) {
	r := newTestRouter(t, 3)
	if err := r.Ingest("", tenantLines("anon", 90)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := r.SearchRegex(context.Background(), "", `id=[0-9]+ status=ok`,
		core.RegexOptions{CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 90 || len(res.Lines) != 90 {
		t.Fatalf("regex matches = %d (lines %d), want 90", res.Matches, len(res.Lines))
	}
}

func TestFleetReopen(t *testing.T) {
	cfg := Config{Shards: 3, Engine: core.Config{Storage: storage.Config{SegmentPages: 4}}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds := loggen.Generate(loggen.BGL2, 1500, 0)
	if err := r.Ingest("", ds.Lines); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest("acme", tenantLines("acme", 70)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Reopen(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if a, b := r.Stats(), r2.Stats(); a.Lines != b.Lines || a.RawBytes != b.RawBytes || a.DataPages != b.DataPages {
		t.Fatalf("fleet stats diverged: %+v vs %+v", a, b)
	}
	for _, qs := range []string{"RAS AND KERNEL", "request", "NOT RAS"} {
		q := query.MustParse(qs)
		for _, tenant := range []string{"", "acme"} {
			a, err := r.Search(context.Background(), tenant, q, core.SearchOptions{CollectLines: true})
			if err != nil {
				t.Fatalf("%s/%q original: %v", qs, tenant, err)
			}
			b, err := r2.Search(context.Background(), tenant, q, core.SearchOptions{CollectLines: true})
			if err != nil {
				t.Fatalf("%s/%q reopened: %v", qs, tenant, err)
			}
			if a.Matches != b.Matches {
				t.Fatalf("%s/%q: matches %d vs %d", qs, tenant, a.Matches, b.Matches)
			}
			as, bs := sortedStrings(a.Lines), sortedStrings(b.Lines)
			for i := range as {
				if as[i] != bs[i] {
					t.Fatalf("%s/%q: line %d differs after fleet reopen", qs, tenant, i)
				}
			}
		}
	}

	// Any corruption in the fleet stream fails the reopen.
	valid := buf.Bytes()
	for _, pos := range []int{3, 9, 15, len(valid) / 2, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x10
		if _, err := Reopen(cfg, bytes.NewReader(mut)); err == nil {
			t.Fatalf("fleet corruption at %d accepted", pos)
		}
	}
}

func TestFederatedMetricsCarryShardLabel(t *testing.T) {
	r := newTestRouter(t, 2)
	if err := r.Ingest("", tenantLines("anon", 40)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Search(context.Background(), "", query.MustParse("request"), core.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Federation().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`mithrilog_router_queries_total 1`,
		`mithrilog_storage_pages{shard="0"}`,
		`mithrilog_storage_pages{shard="1"}`,
		`mithrilog_sched_admitted_total{shard="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("federated exposition missing %q\n%s", want, text[:min(len(text), 2000)])
		}
	}
	// HELP/TYPE appear once per family even though both shards export it.
	if n := strings.Count(text, "# TYPE mithrilog_storage_pages "); n != 1 {
		t.Fatalf("TYPE mithrilog_storage_pages appears %d times, want 1", n)
	}
}
