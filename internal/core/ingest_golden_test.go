package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"mithrilog/internal/loggen"
	"mithrilog/internal/storage"
)

// TestIngestGolden pins what the write path leaves on the device: where
// every page boundary falls, the bytes of every compressed data page, and
// the bytes of every leaf and index page the inverted index writes — after
// Flush, and again after WriteSegments → ReopenEngine rebuilds the index
// from the data pages alone. The oracles say an indexed search returns the
// right lines, and TestScanGolden says the read path moved no cycle; this
// says a rewrite of page fitting, LZAH encoding, token splitting or index
// insertion moved no byte on the device. A flush writes no index node,
// so each profile's flush and reopen headers agree.
//
// Regenerate with `go test ./internal/core -run TestIngestGolden
// -update-golden` only when a change is *meant* to move the stored bytes,
// and say so in the PR.
func TestIngestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	checkGolden(t, "ingest_golden.txt", ingestGolden(t))
}

func ingestGolden(t *testing.T) []byte {
	// Batches of an odd size, with one mid-stream Flush, so page groups
	// straddle batches and one page is cut short by a flush.
	const batch = 777
	lines := map[string]int{
		"BGL2": 3000, "Liberty2": 4000, "Spirit2": 4000, "Thunderbird": 4000,
	}
	var out bytes.Buffer
	for _, p := range loggen.Profiles() {
		ds := loggen.Generate(p, lines[p.Name], 0)
		e := NewEngine(Config{})
		for i := 0; i < len(ds.Lines); i += batch {
			end := min(i+batch, len(ds.Lines))
			if err := e.Ingest(ds.Lines[i:end]); err != nil {
				t.Fatal(err)
			}
			if i == 2*batch {
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		writeIngestGolden(t, &out, p.Name+" flush", e)
		var stream bytes.Buffer
		if err := e.WriteSegments(&stream); err != nil {
			t.Fatal(err)
		}
		re, err := ReopenEngine(Config{}, &stream)
		if err != nil {
			t.Fatal(err)
		}
		writeIngestGolden(t, &out, p.Name+" reopen", re)
	}
	return out.Bytes()
}

// writeIngestGolden records e's totals, index statistics and footprint,
// then one digest row per device page: data pages in the order the
// engine wrote them, leaf and index pages in page-ID order.
func writeIngestGolden(t *testing.T, out *bytes.Buffer, name string, e *Engine) {
	st := e.Index().Stats()
	fmt.Fprintf(out, "# %s pages=%d lines=%d raw=%d comp=%d adds=%d leafnodes=%d rootnodes=%d leafpages=%d indexpages=%d footprint=%d\n",
		name, e.DataPages(), e.Lines(), e.RawBytes(), e.CompressedBytes(),
		st.Adds, st.LeafNodes, st.RootNodes, st.LeafPages, st.IndexPages, e.IndexMemoryFootprint())
	pages := make([][]byte, e.dev.NumPages())
	for id := range pages {
		pages[id] = make([]byte, storage.PageSize)
		if err := e.dev.Read(storage.Internal, storage.PageID(id), pages[id]); err != nil {
			t.Fatal(err)
		}
	}
	data := make(map[storage.PageID]bool, len(e.dataPages))
	for i, id := range e.dataPages {
		data[id] = true
		fmt.Fprintf(out, "%s data %04d id=%d sha=%s\n", name, i, id, pageDigest(pages[id]))
	}
	for id, pg := range pages {
		if !data[storage.PageID(id)] {
			fmt.Fprintf(out, "%s index id=%d sha=%s\n", name, id, pageDigest(pg))
		}
	}
}

// pageDigest is a short SHA-256 prefix of a page image.
func pageDigest(pg []byte) string {
	sum := sha256.Sum256(pg)
	return fmt.Sprintf("%x", sum[:12])
}
