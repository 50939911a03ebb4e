package core

import (
	"mithrilog/internal/storage"
)

// indexPage is the one page indexer, shared by ingest (flushPending) and
// ReopenEngine, so a reopened index is bit-for-bit the index ingest built.
// It takes the page's distinct tokens, in first-seen order, from the page
// dictionary of the engine's ingest pipeline — the same walker and intern
// table that code a page for the page cache, so ingest splits page text
// at exactly the token boundaries the scan path sees — and hands them to
// the index through one Index.AddPage. It returns the page's lines,
// counted as the scan path counts them (a trailing fragment without a
// newline is a line), and the tokens it indexed.
//
//mithrilint:hotpath
func (e *Engine) indexPage(text []byte, id storage.PageID) (lines, tokens int, err error) {
	dict, lines := e.pagePipe.Dictionary(text)
	toks := e.pageToks[:0]
	for _, s := range dict {
		toks = append(toks, text[s.Off:s.Off+s.Len])
	}
	e.pageToks = toks
	err = e.ix.AddPage(toks, id)
	// The footprint is a counter read, so mithrilog_index_memory_bytes
	// tracks ingest page by page instead of waiting for the next flush.
	e.met.indexMemoryBytes.Set(float64(e.ix.MemoryFootprint()))
	return lines, len(toks), err
}
