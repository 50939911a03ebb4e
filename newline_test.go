package mithrilog

import (
	"bytes"
	"fmt"
	"testing"
)

// TestEmbeddedNewlineIsTwoLines pins what a line handed to IngestBytes
// with an embedded '\n' becomes. Data pages are newline-separated text, so
// the scan and reopen paths read it as two lines; ingest must index and
// count it the same way. A token after the newline is found by the
// indexed search, the NoIndex scan and the reopened engine alike, and
// Stats().Lines is the same before and after WriteSegments → Reopen.
func TestEmbeddedNewlineIsTwoLines(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var lines [][]byte
			for i := 0; i < 50; i++ {
				lines = append(lines, []byte(fmt.Sprintf("alpha event %d", i)))
			}
			lines = append(lines, []byte("alpha before\ngamma after"))
			const wantLines = 52

			e := Open(Config{Shards: shards})
			if err := e.IngestBytes(lines); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			var stream bytes.Buffer
			if err := e.WriteSegments(&stream); err != nil {
				t.Fatal(err)
			}
			re, err := Reopen(Config{Shards: shards}, &stream)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				eng  *Engine
			}{{"written", e}, {"reopened", re}} {
				if got := c.eng.Stats().Lines; got != wantLines {
					t.Errorf("%s engine holds %d lines, want %d", c.name, got, wantLines)
				}
				for _, noIndex := range []bool{false, true} {
					res, err := c.eng.Search("gamma", SearchOptions{NoIndex: noIndex})
					if err != nil {
						t.Fatal(err)
					}
					if res.Matches != 1 {
						t.Errorf("%s engine, noindex=%v: gamma matches %d lines, want 1", c.name, noIndex, res.Matches)
					}
				}
			}
			for _, eng := range []*Engine{e, re} {
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
