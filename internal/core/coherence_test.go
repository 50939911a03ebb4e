package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mithrilog/internal/core"
	"mithrilog/internal/filter"
	"mithrilog/internal/loggen"
	"mithrilog/internal/lzah"
	"mithrilog/internal/query"
	"mithrilog/internal/sched"
	"mithrilog/internal/storage"
)

// checkingCache is a core.PageCache that holds every block it serves to
// the rule the cache's coherence rests on, that a sealed page never
// changes: the block's text must be the page on the device, viewed afresh
// and decoded.
type checkingCache struct {
	core.PageCache
	dev *storage.Device // set before the first query

	mu     sync.Mutex
	codec  *lzah.Codec
	served int
	err    error // the first block that failed the check
}

func (c *checkingCache) Get(id storage.PageID) (*filter.TokenizedBlock, bool) {
	tb, ok := c.PageCache.Get(id)
	if ok {
		c.check(id, tb)
	}
	return tb, ok
}

func (c *checkingCache) check(id storage.PageID, tb *filter.TokenizedBlock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.served++
	page, err := c.dev.View(storage.Internal, id)
	if err == nil {
		var want []byte
		if want, err = c.codec.Decompress(nil, page); err == nil && !bytes.Equal(tb.Block, want) {
			err = fmt.Errorf("page %d: the cached block is not the page on the device", id)
		}
	}
	if err != nil && c.err == nil {
		c.err = err
	}
}

// result reports the number of blocks served and the first one that
// failed the check.
func (c *checkingCache) result() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.served, c.err
}

// TestCacheCoherence races ingest, the seal each query runs over buffered
// lines, and explicit flushes against cached scans on every cached path
// (offloaded token scans, indexed and not, and both regex paths), with a
// cache small enough to evict. Every block the cache serves is checked
// against the device as it is served; at quiescence every count must be
// the one a plain list of the ingested lines gives.
func TestCacheCoherence(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 6000, 5)
	cache := &checkingCache{PageCache: sched.NewPageCache(1 << 20), codec: lzah.NewCodec(lzah.Options{})}
	e := core.NewEngine(core.Config{PageCache: cache})
	cache.dev = e.Device()

	const batch = 200
	if err := e.Ingest(ds.Lines[:batch]); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := []query.Query{query.MustParse(`FATAL`), query.MustParse(`RAS AND KERNEL`)}
	patterns := []string{` FATAL `, `ATA`} // prefiltered; a full scan

	runAll := func() ([]int, error) {
		var counts []int
		for i, q := range queries {
			res, err := e.Search(q, core.SearchOptions{NoIndex: i == 0})
			if err != nil {
				return nil, err
			}
			counts = append(counts, res.Matches)
		}
		for _, p := range patterns {
			res, err := e.SearchRegexOpts(p, core.RegexOptions{})
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
	go func() { // writer: explicit flushes every third batch
		defer wg.Done()
		defer close(done)
		for b := batch; b < len(ds.Lines); b += batch {
			if err := e.Ingest(ds.Lines[b : b+batch]); err != nil {
				t.Error(err)
				return
			}
			if (b/batch)%3 == 0 {
				if err := e.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() { // reader: each query seals what is buffered
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
	}
	wg.Wait()
	if _, err := cache.result(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if err := e.Flush(); err != nil {
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
		if _, err := cache.result(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(counts) != fmt.Sprint(model) {
			t.Fatalf("%s quiescent run counted %v, the ingested lines give %v", run, counts, model)
		}
	}
	served, _ := cache.result()
	if served == 0 {
		t.Fatal("the cache served no page; the check is vacuous")
	}
	t.Logf("%d cached blocks checked against the device", served)
}
