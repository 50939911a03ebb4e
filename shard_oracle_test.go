package mithrilog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"mithrilog/internal/loggen"
)

// This file is the multi-shard differential oracle: a 1-shard and an
// N-shard deployment fed the same lines must answer every query with
// byte-identical merged results. Placement (tenant hashing, round-robin
// striping) decides only where a line lives, never what it says, so any
// divergence is a router merge bug, a placement data-loss bug, or a
// per-shard engine bug amplified by the split.

// shardOracleQueries runs the seeded random-query sweep from the main
// differential oracle against both deployments and demands identical
// match counts and identical sorted line sets on the indexed and
// no-index paths.
func shardOracleQueries(t *testing.T, single, sharded *Engine, ds *loggen.Dataset, seed int64, queries int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := tokenVocabulary(ds.Lines, rng)
	for qi := 0; qi < queries; qi++ {
		q := randomQuery(rng, vocab)
		for _, noIndex := range []bool{false, true} {
			opts := SearchOptions{CollectLines: true, NoIndex: noIndex}
			want, err := single.SearchQuery(Query{q: q}, opts)
			if err != nil {
				t.Fatalf("query %d (%s) noindex=%v: single: %v", qi, q, noIndex, err)
			}
			got, err := sharded.SearchQuery(Query{q: q}, opts)
			if err != nil {
				t.Fatalf("query %d (%s) noindex=%v: sharded: %v", qi, q, noIndex, err)
			}
			if got.Partial || len(got.FailedShards) > 0 {
				t.Fatalf("query %d (%s): unexpected partial result: %+v", qi, q, got.FailedShards)
			}
			if got.Matches != want.Matches {
				t.Errorf("query %d (%s) noindex=%v: sharded %d matches, single %d",
					qi, q, noIndex, got.Matches, want.Matches)
				continue
			}
			ws, gs := sortedStrings(want.Lines), sortedStrings(got.Lines)
			if !equalLines(gs, ws) {
				t.Errorf("query %d (%s) noindex=%v: line sets diverge (first diff: %s)",
					qi, q, noIndex, firstDiff(gs, ws))
			}
		}
	}
}

// TestShardedDifferentialOracle ingests each dataset profile untenanted
// into a 1-shard and a 4-shard engine (round-robin striping splits every
// dataset across all four) and sweeps seeded random queries. 4 profiles
// x 30 queries x 2 paths.
func TestShardedDifferentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	lines := map[string]int{
		"BGL2": 2000, "Liberty2": 2500, "Spirit2": 2500, "Thunderbird": 2500,
	}
	for _, p := range loggen.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ds := loggen.Generate(p, lines[p.Name], 0)
			single := Open(Config{})
			sharded := Open(Config{Shards: 4})
			for _, e := range []*Engine{single, sharded} {
				if err := e.IngestBytes(ds.Lines); err != nil {
					t.Fatal(err)
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if st := sharded.Stats(); st.Lines != single.Stats().Lines {
				t.Fatalf("sharded fleet holds %d lines, single %d", st.Lines, single.Stats().Lines)
			}
			shardOracleQueries(t, single, sharded, ds, 0x5A4D^p.Seed, 30)
		})
	}
}

// TestShardedOracleSealStraddling interleaves ingest with segment seals
// (WriteSegments seals the active segment on every shard), so the
// dataset straddles sealed/active segment boundaries differently on
// every shard. Results must still match the single engine exactly.
func TestShardedOracleSealStraddling(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 2400, 7)
	single := Open(Config{})
	sharded := Open(Config{Shards: 4})
	for _, e := range []*Engine{single, sharded} {
		for off := 0; off < len(ds.Lines); off += 400 {
			if err := e.IngestBytes(ds.Lines[off : off+400]); err != nil {
				t.Fatal(err)
			}
			// Seal mid-stream: later lines land in fresh segments.
			if err := e.WriteSegments(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := sharded.Stats(); st.SealedSegments == 0 {
		t.Fatal("seal straddling test sealed no segments")
	}
	shardOracleQueries(t, single, sharded, ds, 0xBEEF, 20)
}

// TestShardedOracleTenantSkew places every line under one tenant — the
// worst skew: one shard holds everything, the rest are empty. Scatter
// queries must report the empty shards without failing, and both the
// scatter and the tenant-routed query must match the single engine.
func TestShardedOracleTenantSkew(t *testing.T) {
	ds := loggen.Generate(loggen.Liberty2, 1500, 11)
	single := Open(Config{})
	sharded := Open(Config{Shards: 4})
	if err := single.IngestBytes(ds.Lines); err != nil {
		t.Fatal(err)
	}
	if err := sharded.IngestTenant("heavy-hitter", ds.Lines); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{single, sharded} {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Untenanted scatter: three shards are empty, none of that is failure.
	res, err := sharded.Search("error OR warning OR fatal", SearchOptions{CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsQueried != 4 || res.EmptyShards != 3 {
		t.Fatalf("scatter over skewed fleet: queried %d, empty %d; want 4, 3",
			res.ShardsQueried, res.EmptyShards)
	}
	if res.Partial {
		t.Fatal("empty shards must not mark the result partial")
	}

	// Tenant-routed query touches exactly the home shard and answers
	// identically to the untenanted scatter (all data is that tenant's).
	routed, err := sharded.Search("error OR warning OR fatal",
		SearchOptions{CollectLines: true, Tenant: "heavy-hitter"})
	if err != nil {
		t.Fatal(err)
	}
	if routed.ShardsQueried != 1 {
		t.Fatalf("tenant query scattered to %d shards", routed.ShardsQueried)
	}
	if routed.Matches != res.Matches || !equalLines(sortedStrings(routed.Lines), sortedStrings(res.Lines)) {
		t.Fatal("tenant-routed result diverges from the scatter over the same data")
	}

	shardOracleQueries(t, single, sharded, ds, 0xCAFE, 20)
}

// TestShardedOracleSingleShardAnswer spreads tenants over the fleet and
// asks a query only one tenant's lines can satisfy: the scatter must
// visit every shard yet return exactly the lines the single engine
// finds, proving the merge neither loses nor duplicates when all
// matches come from one shard.
func TestShardedOracleSingleShardAnswer(t *testing.T) {
	single := Open(Config{})
	sharded := Open(Config{Shards: 4})
	tenants := []string{"alpha", "bravo", "charlie", "delta"}
	for ti, tenant := range tenants {
		var lines [][]byte
		for i := 0; i < 200; i++ {
			lines = append(lines, []byte(fmt.Sprintf("%s svc=%d request handled in %dms", tenant, ti, i%97)))
		}
		if err := single.IngestBytes(lines); err != nil {
			t.Fatal(err)
		}
		if err := sharded.IngestTenant(tenant, lines); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []*Engine{single, sharded} {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	want, err := single.Search("charlie AND handled", SearchOptions{CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Search("charlie AND handled", SearchOptions{CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardsQueried != 4 {
		t.Fatalf("untenanted query must scatter to all 4 shards, got %d", got.ShardsQueried)
	}
	if got.Matches != want.Matches || got.Matches != 200 {
		t.Fatalf("sharded %d matches, single %d, want 200", got.Matches, want.Matches)
	}
	if !equalLines(sortedStrings(got.Lines), sortedStrings(want.Lines)) {
		t.Fatal("single-shard-answer line sets diverge")
	}
}

// TestShardedEmptyFleet checks the all-empty boundary: a query against a
// fleet that never ingested is ErrNothingIngested, same as a fresh
// single engine, not a partial result or a shard error.
func TestShardedEmptyFleet(t *testing.T) {
	sharded := Open(Config{Shards: 3})
	_, err := sharded.Search("anything", SearchOptions{})
	if err == nil {
		t.Fatal("query on an empty fleet must fail")
	}
	single := Open(Config{})
	_, serr := single.Search("anything", SearchOptions{})
	if !errors.Is(err, serr) && err.Error() != serr.Error() {
		t.Fatalf("empty-fleet error %q diverges from single-engine %q", err, serr)
	}
}

// TestFleetReopenOracle is the crash/reopen oracle at fleet scope: after
// sealing and reopening, no accepted line may be lost and every query
// must answer byte-identically. The stream carries the shard count, so
// a Reopen with a different cfg.Shards still restores the original
// placement.
func TestFleetReopenOracle(t *testing.T) {
	ds := loggen.Generate(loggen.Spirit2, 1800, 3)
	orig := Open(Config{Shards: 3})
	// Mixed tenancy: striped bulk plus two tenants with private streams.
	if err := orig.IngestBytes(ds.Lines[:1200]); err != nil {
		t.Fatal(err)
	}
	if err := orig.IngestTenant("acme", ds.Lines[1200:1500]); err != nil {
		t.Fatal(err)
	}
	if err := orig.IngestTenant("globex", ds.Lines[1500:]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	// cfg.Shards deliberately disagrees: the stream must win.
	re, err := Reopen(Config{Shards: 8}, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != 3 {
		t.Fatalf("reopened fleet has %d shards, stream recorded 3", re.Shards())
	}
	if got, want := re.Stats().Lines, orig.Stats().Lines; got != want {
		t.Fatalf("reopen lost lines: %d of %d", got, want)
	}

	for _, expr := range []string{
		"error", "error AND NOT fatal", "warning OR info", "nonexistent-token-xyz",
	} {
		for _, tenant := range []string{"", "acme", "globex"} {
			opts := SearchOptions{CollectLines: true, Tenant: tenant}
			want, werr := orig.Search(expr, opts)
			got, gerr := re.Search(expr, opts)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%q tenant=%q: error divergence: %v vs %v", expr, tenant, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if got.Matches != want.Matches {
				t.Errorf("%q tenant=%q: reopened %d matches, original %d",
					expr, tenant, got.Matches, want.Matches)
				continue
			}
			if !equalLines(sortedStrings(got.Lines), sortedStrings(want.Lines)) {
				t.Errorf("%q tenant=%q: reopened line set diverges (first diff: %s)",
					expr, tenant, firstDiff(sortedStrings(got.Lines), sortedStrings(want.Lines)))
			}
		}
	}

	// Corrupting any byte region of the fleet stream must be detected,
	// never panic, never serve bad lines.
	for _, pos := range []int{4, 20, buf.Len() / 2, buf.Len() - 9} {
		mut := append([]byte(nil), buf.Bytes()...)
		mut[pos] ^= 0x40
		if _, err := Reopen(Config{}, bytes.NewReader(mut)); err == nil {
			t.Errorf("corruption at byte %d went undetected", pos)
		}
	}
}

// TestSingleEngineReopen checks the facade Reopen path for an unsharded
// stream: the magic peek must fall through to the single-engine reopen.
func TestSingleEngineReopen(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 900, 5)
	orig := Open(Config{})
	if err := orig.IngestBytes(ds.Lines); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Reopen(Config{}, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != 1 {
		t.Fatalf("single stream reopened as %d shards", re.Shards())
	}
	want, err := orig.Search("error", SearchOptions{CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Search("error", SearchOptions{CollectLines: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || !equalLines(sortedStrings(got.Lines), sortedStrings(want.Lines)) {
		t.Fatal("single-engine reopen diverges")
	}
	// A fleet config cannot reopen a single-engine stream.
	if _, err := Reopen(Config{Shards: 4}, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("sharded Reopen of a single-engine stream must fail")
	}
}

// TestShardedPersistGuards pins the unsupported-operation contract:
// sharded engines refuse the whole-store passes (SearchBatch, Tag) with
// ErrSharded. Export works on a fleet: it writes the shards' exports in
// shard order.
func TestShardedPersistGuards(t *testing.T) {
	e := Open(Config{Shards: 2})
	ds := loggen.Generate(loggen.BGL2, 300, 9)
	single := Open(Config{})
	var want bytes.Buffer
	if err := single.IngestBytes(ds.Lines); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Export(&want); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBytes(ds.Lines[:200]); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestTenant("acme", ds.Lines[200:]); err != nil {
		t.Fatal(err)
	}
	var got, shards bytes.Buffer
	n, err := e.Export(&got)
	if err != nil || n != uint64(got.Len()) {
		t.Fatalf("Export on sharded engine: %d bytes reported, %d written, err %v", n, got.Len(), err)
	}
	for i := 0; i < e.Shards(); i++ {
		if _, err := e.router.Shard(i).Export(&shards); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), shards.Bytes()) {
		t.Fatal("fleet export is not the shards' exports in shard order")
	}
	split := func(b []byte) []string { return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") }
	if gs, ws := sortedStrings(split(got.Bytes())), sortedStrings(split(want.Bytes())); !equalLines(gs, ws) {
		t.Fatalf("fleet export's lines diverge from a single engine's (first diff: %s)", firstDiff(gs, ws))
	}
	if _, err := e.SearchBatch([]Query{MustParseQuery("a")}); !errors.Is(err, ErrSharded) {
		t.Fatalf("SearchBatch on sharded engine: %v, want ErrSharded", err)
	}
	lib := ExtractTemplates([]string{"a b c", "a b d"}, TemplateParams{})
	if _, err := e.Tag(lib, false); !errors.Is(err, ErrSharded) {
		t.Fatalf("Tag on sharded engine: %v, want ErrSharded", err)
	}
}
