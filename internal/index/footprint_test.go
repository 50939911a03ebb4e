package index

import (
	"fmt"
	"math/rand"
	"testing"

	"mithrilog/internal/storage"
)

// walkFootprint is the reference model of MemoryFootprint: the walk over
// every bucket's buffers that the resident counter replaces.
func walkFootprint(ix *Index) int {
	per := 0
	for i := range ix.buckets {
		b := &ix.buckets[i]
		per += cap(b.leafBuf)*4 + cap(b.rootBuf)*8 + 24
	}
	return per + len(ix.openLeafBuf) + len(ix.openIndexBuf) + len(ix.buckets)*8
}

// TestFootprintCounterMatchesWalk drives Add, AddPage and Flush and checks
// the counter against the walk after every step, at the paper geometry
// and at one tiny enough that leaf and index pages rotate many times.
func TestFootprintCounterMatchesWalk(t *testing.T) {
	for _, p := range []Params{
		{},
		{Buckets: 4, LeafEntries: 2, RootEntries: 2},
	} {
		t.Run(fmt.Sprintf("buckets=%d", p.withDefaults().Buckets), func(t *testing.T) {
			dev := storage.New(storage.Config{})
			ix := New(dev, p)
			check := func(ix *Index, step string) {
				t.Helper()
				if got, want := ix.MemoryFootprint(), walkFootprint(ix); got != want {
					t.Fatalf("after %s: counter %d, walk %d", step, got, want)
				}
			}
			check(ix, "New")
			rng := rand.New(rand.NewSource(30))
			page := storage.PageID(0)
			for round := 0; round < 6; round++ {
				for i := 0; i < 40; i++ {
					if err := ix.Add(fmt.Sprintf("t%d", rng.Intn(300)), page); err != nil {
						t.Fatal(err)
					}
					check(ix, "Add")
					page++
				}
				for i := 0; i < 20; i++ {
					toks := make([][]byte, 1+rng.Intn(30))
					for j := range toks {
						toks[j] = []byte(fmt.Sprintf("p%d.%d", j, rng.Intn(50)))
					}
					if err := ix.AddPage(toks, page); err != nil {
						t.Fatal(err)
					}
					check(ix, "AddPage")
					page++
				}
				// Two rounds in three end on a Flush, one leaves its buffers
				// partly full.
				if round%3 < 2 {
					if err := ix.Flush(); err != nil {
						t.Fatal(err)
					}
					check(ix, "Flush")
				}
			}
			if st := ix.Stats(); p.Buckets == 4 && (st.LeafPages == 0 || st.IndexPages == 0) {
				t.Fatalf("tiny geometry rotated no pages: %+v", st)
			}
		})
	}
}
