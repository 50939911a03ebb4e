package index

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mithrilog/internal/storage"
)

func newTestIndex(t testing.TB, p Params) (*Index, *storage.Device) {
	t.Helper()
	dev := storage.New(storage.Config{})
	if p.Buckets == 0 {
		p.Buckets = 256
	}
	return New(dev, p), dev
}

func TestAddLookupSmall(t *testing.T) {
	ix, _ := newTestIndex(t, Params{})
	for p := storage.PageID(0); p < 10; p++ {
		if err := ix.Add("alpha", p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.Lookup("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 10 {
		t.Fatalf("pages = %v", res.Pages)
	}
	for i, p := range res.Pages {
		if p != storage.PageID(i) {
			t.Fatalf("pages not sorted: %v", res.Pages)
		}
	}
	// All in-memory: no storage traversal yet.
	if res.RootHops != 0 {
		t.Errorf("root hops %d before any flush", res.RootHops)
	}
}

func TestLookupNeverMisses(t *testing.T) {
	// The index is probabilistic (over-approximating) but must never lose
	// a (token, page) pair, across leaf/root flush boundaries.
	ix, _ := newTestIndex(t, Params{LeafEntries: 4, RootEntries: 4})
	want := make(map[string][]storage.PageID)
	tokens := []string{"a", "bb", "ccc", "dddd", "eeeee", "f1", "g2", "h3"}
	rng := rand.New(rand.NewSource(9))
	for p := storage.PageID(0); p < 500; p++ {
		tok := tokens[rng.Intn(len(tokens))]
		if err := ix.Add(tok, p); err != nil {
			t.Fatal(err)
		}
		want[tok] = append(want[tok], p)
	}
	for tok, pages := range want {
		res, err := ix.Lookup(tok)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[storage.PageID]bool, len(res.Pages))
		for _, p := range res.Pages {
			got[p] = true
		}
		for _, p := range pages {
			if !got[p] {
				t.Fatalf("token %q lost page %d", tok, p)
			}
		}
	}
}

func TestLookupAfterFlush(t *testing.T) {
	ix, _ := newTestIndex(t, Params{LeafEntries: 4, RootEntries: 4})
	for p := storage.PageID(0); p < 100; p++ {
		if err := ix.Add("tok", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Lookup("tok")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) < 100 {
		t.Fatalf("lost pages after flush: %d", len(res.Pages))
	}
	if res.RootHops == 0 {
		t.Error("expected storage traversal after flush")
	}
}

func TestTreeFanoutReducesHops(t *testing.T) {
	// 16x16 trees: ~256 pages per root hop. 2000 single-token adds should
	// take < 20 hops, where a 16-entry naive list would take ~125.
	ix, _ := newTestIndex(t, Params{})
	for p := storage.PageID(0); p < 2000; p++ {
		_ = ix.Add("hot", p)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Lookup("hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) < 2000 {
		t.Fatalf("pages %d", len(res.Pages))
	}
	// All adds for one token split across 2 buckets: ≥ 2000/256/2 hops per
	// bucket; total hops should be around 8, certainly < 20.
	if res.RootHops == 0 || res.RootHops > 20 {
		t.Fatalf("root hops = %d", res.RootHops)
	}
	if res.LeafReads == 0 {
		t.Fatal("no leaf reads")
	}
}

func TestTwoHashBalancing(t *testing.T) {
	// A very hot token's pages split across two buckets; each bucket ends
	// up with roughly half.
	ix, _ := newTestIndex(t, Params{Buckets: 1024})
	for p := storage.PageID(0); p < 1000; p++ {
		_ = ix.Add("hot", p)
	}
	a, b := ix.hash("hot")
	if a == b {
		t.Skip("hash collision in test configuration")
	}
	ca, cb := ix.buckets[a].count, ix.buckets[b].count
	if ca+cb != 1000 {
		t.Fatalf("counts %d + %d != 1000", ca, cb)
	}
	diff := int64(ca) - int64(cb)
	if diff < -1 || diff > 1 {
		t.Fatalf("unbalanced: %d vs %d", ca, cb)
	}
}

func TestBucketSharingOverApproximates(t *testing.T) {
	// Force both tokens into the same buckets (Buckets=1): lookup of one
	// returns the other's pages too — allowed (filter removes them), but
	// must include its own.
	ix, _ := newTestIndex(t, Params{Buckets: 1})
	_ = ix.Add("x", 1)
	_ = ix.Add("y", 2)
	res, err := ix.Lookup("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 2 {
		t.Fatalf("pages = %v", res.Pages)
	}
}

func TestEmptyTokenErrors(t *testing.T) {
	ix, _ := newTestIndex(t, Params{})
	if err := ix.Add("", 1); err != ErrTokenEmpty {
		t.Error("Add empty token should fail")
	}
	if _, err := ix.Lookup(""); err != ErrTokenEmpty {
		t.Error("Lookup empty token should fail")
	}
}

func TestLookupUnknownToken(t *testing.T) {
	ix, _ := newTestIndex(t, Params{})
	_ = ix.Add("known", 5)
	res, err := ix.Lookup("unknown-token-xyz")
	if err != nil {
		t.Fatal(err)
	}
	// Probably empty (different buckets); never an error.
	_ = res
}

func TestMemoryFootprintSmall(t *testing.T) {
	ix, _ := newTestIndex(t, Params{Buckets: 4096})
	for p := storage.PageID(0); p < 5000; p++ {
		_ = ix.Add(fmt.Sprintf("tok%d", p%100), p)
	}
	fp := ix.MemoryFootprint()
	// Tree-of-lists keeps per-bucket buffers tiny: ≪ 1 MB at this scale.
	if fp > 1<<20 {
		t.Fatalf("footprint %d too large", fp)
	}
	if fp == 0 {
		t.Fatal("footprint not accounted")
	}
}

func TestSimulatedLookupTime(t *testing.T) {
	ix, dev := newTestIndex(t, Params{})
	for p := storage.PageID(0); p < 3000; p++ {
		_ = ix.Add("hot", p)
	}
	_ = ix.Flush()
	res, _ := ix.Lookup("hot")
	simt := ix.SimulatedLookupTime(res)
	if simt <= 0 {
		t.Fatal("no simulated time")
	}
	// Must be dominated by a handful of latency hops: well under 10ms.
	if simt > 10*time.Millisecond {
		t.Fatalf("sim time %v too large", simt)
	}
	_ = dev
}

func TestStatsProgress(t *testing.T) {
	ix, _ := newTestIndex(t, Params{LeafEntries: 4, RootEntries: 4})
	for p := storage.PageID(0); p < 200; p++ {
		_ = ix.Add("t", p)
	}
	st := ix.Stats()
	if st.Adds != 200 || st.LeafNodes == 0 || st.RootNodes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestQuickIndexNeverLoses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := storage.New(storage.Config{})
		ix := New(dev, Params{
			Buckets:     1 << uint(2+rng.Intn(6)),
			LeafEntries: 2 + rng.Intn(15),
			RootEntries: 2 + rng.Intn(15),
			Seed:        uint64(seed),
		})
		want := make(map[string]map[storage.PageID]bool)
		for p := storage.PageID(0); p < 300; p++ {
			tok := fmt.Sprintf("t%d", rng.Intn(20))
			if err := ix.Add(tok, p); err != nil {
				return false
			}
			if want[tok] == nil {
				want[tok] = make(map[storage.PageID]bool)
			}
			want[tok][p] = true
		}
		if rng.Intn(2) == 0 {
			if err := ix.Flush(); err != nil {
				return false
			}
		}
		for tok, pages := range want {
			res, err := ix.Lookup(tok)
			if err != nil {
				return false
			}
			got := make(map[storage.PageID]bool)
			for _, p := range res.Pages {
				got[p] = true
			}
			for p := range pages {
				if !got[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestListIndexBasic(t *testing.T) {
	dev := storage.New(storage.Config{})
	li := NewList(dev, ListParams{Buckets: 64, NodeEntries: 8})
	for p := storage.PageID(0); p < 100; p++ {
		if err := li.Add("tok", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := li.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := li.Lookup("tok")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) < 100 {
		t.Fatalf("pages %d", len(res.Pages))
	}
	if res.NodeHops < 10 {
		t.Fatalf("small nodes should need many hops, got %d", res.NodeHops)
	}
	if li.SimulatedLookupTime(res) <= 0 {
		t.Fatal("sim time missing")
	}
	if _, err := li.Lookup(""); err != ErrTokenEmpty {
		t.Error("empty token")
	}
	if err := li.Add("", 0); err != ErrTokenEmpty {
		t.Error("empty token add")
	}
}

func TestListIndexVsTreeTradeoff(t *testing.T) {
	// The §6.1 design argument, quantified: for the same ingest stream,
	// the naive list with node sizes big enough to saturate bandwidth uses
	// far more ingest memory than the tree; with small nodes it needs far
	// more dependent hops.
	dev1 := storage.New(storage.Config{})
	tree := New(dev1, Params{Buckets: 1024})
	dev2 := storage.New(storage.Config{})
	bigList := NewList(dev2, ListParams{Buckets: 1024, NodeEntries: 512})

	for p := storage.PageID(0); p < 5000; p++ {
		tok := fmt.Sprintf("t%d", p%200)
		_ = tree.Add(tok, p)
		_ = bigList.Add(tok, p)
	}
	if bigList.MemoryFootprint() < 4*tree.MemoryFootprint() {
		t.Fatalf("expected big-node list footprint to dominate: list=%d tree=%d",
			bigList.MemoryFootprint(), tree.MemoryFootprint())
	}
}

func BenchmarkIndexAdd(b *testing.B) {
	dev := storage.New(storage.Config{})
	ix := New(dev, Params{})
	toks := make([]string, 256)
	for i := range toks {
		toks[i] = fmt.Sprintf("token-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Add(toks[i%256], storage.PageID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	dev := storage.New(storage.Config{})
	ix := New(dev, Params{})
	for p := storage.PageID(0); p < 10000; p++ {
		_ = ix.Add(fmt.Sprintf("token-%d", p%50), p)
	}
	_ = ix.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Lookup(fmt.Sprintf("token-%d", i%50)); err != nil {
			b.Fatal(err)
		}
	}
}
