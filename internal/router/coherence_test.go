package router

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mithrilog/internal/core"
	"mithrilog/internal/loggen"
	"mithrilog/internal/lzah"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// checkShardCaches looks every page of every shard up in that shard's
// cache and holds each cached block to the page on the shard's device,
// viewed afresh and decoded: a sealed page never changes, so a cached one
// can never differ from it. It reports how many blocks it checked.
func checkShardCaches(r *Router, codec *lzah.Codec) (int, error) {
	checked := 0
	for i, sh := range r.shards {
		dev := sh.eng.Device()
		for id := storage.PageID(0); int(id) < dev.NumPages(); id++ {
			tb, ok := sh.cache.Get(id)
			if !ok {
				continue
			}
			page, err := dev.View(storage.Internal, id)
			if err != nil {
				return checked, err
			}
			want, err := codec.Decompress(nil, page)
			if err != nil {
				return checked, err
			}
			if !bytes.Equal(tb.Block, want) {
				return checked, fmt.Errorf("shard %d page %d: the cached block is not the page on the device", i, id)
			}
			checked++
		}
	}
	return checked, nil
}

// TestShardCacheCoherence is TestCacheCoherence (internal/core) at width
// 4: tenant and striped ingest, the seals scattered queries run over
// buffered lines, and explicit fleet flushes race cached scatter scans
// while a checker sweeps every shard's cache against its device. At
// quiescence every count must be the one a plain list of the ingested
// lines gives.
func TestShardCacheCoherence(t *testing.T) {
	ds := loggen.Generate(loggen.Liberty2, 6000, 5)
	r, err := New(Config{Shards: 4, CacheBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	codec := lzah.NewCodec(lzah.Options{})

	const batch = 200
	if err := r.Ingest("", ds.Lines[:4*batch]); err != nil { // every shard holds lines
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := []query.Query{query.MustParse(`session AND opened`), query.MustParse(`kernel:`)}
	patterns := []string{` session opened for `, `ession`} // prefiltered; a full scan
	ctx := context.Background()
	runAll := func() ([]int, error) {
		var counts []int
		for i, q := range queries {
			res, err := r.Search(ctx, "", q, core.SearchOptions{NoIndex: i == 0})
			if err != nil {
				return nil, err
			}
			counts = append(counts, res.Matches)
		}
		for _, p := range patterns {
			res, err := r.SearchRegex(ctx, "", p, core.RegexOptions{})
			if err != nil {
				return nil, err
			}
			counts = append(counts, res.Matches)
		}
		return counts, nil
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // writer: tenants round-robin, a fleet flush every third batch
		defer wg.Done()
		defer close(done)
		tenants := []string{"", "acme", "globex"}
		for b := 4 * batch; b < len(ds.Lines); b += batch {
			if err := r.Ingest(tenants[(b/batch)%len(tenants)], ds.Lines[b:b+batch]); err != nil {
				t.Error(err)
				return
			}
			if (b/batch)%3 == 0 {
				if err := r.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // reader: each scatter seals what its shards buffer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := runAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // checker
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := checkShardCaches(r, codec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	var model []int
	for _, q := range queries {
		n := 0
		for _, l := range ds.Lines {
			if q.Match(string(l)) {
				n++
			}
		}
		model = append(model, n)
	}
	for _, p := range patterns {
		n := 0
		for _, l := range ds.Lines {
			if strings.Contains(string(l), p) {
				n++
			}
		}
		model = append(model, n)
	}
	for i, n := range model {
		if n == 0 {
			t.Fatalf("query %d matches no line; its count checks nothing", i)
		}
	}
	for _, run := range []string{"first", "second"} {
		counts, err := runAll()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(counts) != fmt.Sprint(model) {
			t.Fatalf("%s quiescent run counted %v, the ingested lines give %v", run, counts, model)
		}
	}
	checked, err := checkShardCaches(r, codec)
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no shard cache holds a page; the check is vacuous")
	}
	t.Logf("%d cached blocks checked against the shards' devices at quiescence", checked)
}
