package index

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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

// TestFootprintCounterMatchesWalk drives Add, AddPage, Flush, TakeSnapshot
// and Save → LoadIndex and checks the counter against the walk after every
// step, at the paper geometry and at one tiny enough that leaf and index
// pages rotate many times.
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
				switch round % 3 {
				case 0:
					if err := ix.Flush(); err != nil {
						t.Fatal(err)
					}
					check(ix, "Flush")
				case 1:
					if err := ix.TakeSnapshot(time.Unix(int64(round), 0)); err != nil {
						t.Fatal(err)
					}
					check(ix, "TakeSnapshot")
				}
				dev2 := storage.New(storage.Config{})
				if err := dev2.Restore(dev.Snapshot()); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadIndex(dev2, ix.Save())
				if err != nil {
					t.Fatal(err)
				}
				check(loaded, "Save → LoadIndex")
				if err := loaded.Add("after-load", page); err != nil {
					t.Fatal(err)
				}
				check(loaded, "Add after LoadIndex")
			}
			if st := ix.Stats(); p.Buckets == 4 && (st.LeafPages == 0 || st.IndexPages == 0) {
				t.Fatalf("tiny geometry rotated no pages: %+v", st)
			}
		})
	}
}

// TestLoadIndexRejectsImpossibleBuffers: a saved node buffer at its node's
// capacity, or an open page of the wrong size, is state no ingest leaves
// behind, and loading it fails instead of building an index whose buffers
// would outgrow their accounting.
func TestLoadIndexRejectsImpossibleBuffers(t *testing.T) {
	ix := New(storage.New(storage.Config{}), Params{Buckets: 4, LeafEntries: 2, RootEntries: 2})
	if err := ix.Add("x", 1); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(s *SavedIndex){
		"full leaf buffer": func(s *SavedIndex) {
			for i := range s.Buckets {
				if s.Buckets[i].HasState {
					s.Buckets[i].LeafBuf = []uint32{1, 2}
				}
			}
		},
		"short open page": func(s *SavedIndex) { s.OpenLeafBuf = make([]byte, 10) },
	} {
		s := ix.Save()
		corrupt(s)
		if _, err := LoadIndex(storage.New(storage.Config{}), s); err == nil {
			t.Errorf("%s: load succeeded", name)
		}
	}
}
