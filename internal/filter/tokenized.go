package filter

import "fmt"

// Span locates one token in a TokenizedBlock's text.
type Span struct {
	Off, Len uint32
}

// lineEnd closes one line of a TokenizedBlock: where its tokens end in
// Words, how many datapath words the block takes up to and including it,
// and where its text ends in Block (newline excluded). The previous line's
// ends (plus the newline byte, for the text) are its starts.
type lineEnd struct {
	tokEnd, wordEnd, byteEnd uint32
}

// TokenizedBlock is a decompressed data page together with what the
// tokenizer stage found in it: every token, and where every line ends. It
// is the unit the decompressed-page cache stores — in the hardware
// analog, device DRAM holding the tokenizer stage's output — so a cached
// page re-enters the pipeline directly at the hash filters, skipping the
// flash read, the LZAH decompression, the line split, and the
// tokenization.
//
// The block is dictionary-coded. A page repeats its tokens (a Liberty2
// page holds about 1,550 tokens and 120 distinct ones), so each token
// occurrence is a 2-byte page-local id, and a dictionary holds one span
// of the text per id. A query probes the cuckoo table once per id, not
// once per occurrence. The hardware would hold padded 16-byte words (4.5
// bytes per raw byte); the ids, the dictionary and the line ends take
// about 0.5, so a cached page costs about 1.5 bytes per raw byte
// (MemSize). A TokenizedBlock is immutable once built and safe to share
// between concurrent queries.
type TokenizedBlock struct {
	// Block is the decompressed page text; the dictionary's spans index
	// it and kept lines alias it.
	Block []byte
	// Words holds one page-local token id per token of every line, in
	// order. (The name is the datapath's, and the benchmark's: one entry
	// per token, not per 16-byte word.) Equal ids name equal bytes; equal
	// bytes usually, not always, share an id.
	Words []uint16
	dict  []Span // the text of each id
	lines []lineEnd
}

const idBytes, spanBytes, lineEndBytes = 2, 8, 12 // sizes of an id, a Span and a lineEnd

// MemSize is the block's resident footprint: the backing arrays of the
// text, the token ids, the dictionary and the line ends, by capacity. The
// page cache budgets against it.
func (tb *TokenizedBlock) MemSize() int64 {
	return int64(cap(tb.Block)) + idBytes*int64(cap(tb.Words)) +
		spanBytes*int64(cap(tb.dict)) + lineEndBytes*int64(cap(tb.lines))
}

// Lines reports the number of lines in the block.
func (tb *TokenizedBlock) Lines() int { return len(tb.lines) }

// maxTokenizeBytes bounds the block Tokenize takes, so that every id fits
// a uint16: a token and its delimiter take at least two bytes, so a block
// of fewer than 128 KiB holds at most 65,536 tokens, and each token adds
// at most one id, however lossy the intern table. A data page decodes to
// under 32 KiB: each 2-byte LZAH match yields at most 16 bytes of a 4 KiB
// page.
const maxTokenizeBytes = 128 << 10

// Tokenize runs the pipeline's tokenizer stage over a newline-separated
// text block (as emitted line-aligned by the decompressor, §5) and
// records its dictionary-coded tokens and line ends; the block keeps the
// text, it does not copy it. The block must be shorter than 128 KiB
// (maxTokenizeBytes); Tokenize panics otherwise. The tokenizer array's
// cycle and useful-bit statistics accumulate exactly as in FilterBlock,
// so a miss-path Tokenize followed by FilterTokenized is stat-identical to
// FilterBlock over the same text.
func (p *Pipeline) Tokenize(block []byte) *TokenizedBlock {
	if len(block) >= maxTokenizeBytes {
		panic(fmt.Sprintf("filter: Tokenize of a %d-byte block; the bound is %d", len(block), maxTokenizeBytes))
	}
	p.spans, p.ends = p.spans[:0], p.ends[:0]
	p.walk(block, true)
	p.intern.next()
	p.internSpans(block)
	// Right-sized copies out of the reused buffers: these live as long as
	// the page stays cached, and the cache is charged their capacity.
	return &TokenizedBlock{
		Block: block,
		Words: append([]uint16(nil), p.ids...),
		dict:  append([]Span(nil), p.dict...),
		lines: append([]lineEnd(nil), p.ends...),
	}
}

// FilterTokenized evaluates a pre-tokenized block against the configured
// query and returns the kept lines (aliasing tb.Block; the slice of them
// is valid until the pipeline's next call), exactly as FilterBlock would
// for the same text: the same round-robin hash-filter assignment,
// verdicts, and line/byte/word accounting. Only the tokenizer array is
// bypassed — the tokens were found when the block entered the cache. The
// cuckoo table is probed once per dictionary entry, and each occurrence
// folds its id's row, if any, into its line's filter; a page on which no
// entry hits skips the occurrences altogether.
//
//mithrilint:hotpath
func (p *Pipeline) FilterTokenized(tb *TokenizedBlock) ([][]byte, error) {
	if p.filters == nil {
		return nil, errNotConfigured
	}
	rows, hit := p.rows[:0], false
	for _, s := range tb.dict {
		row := int32(-1)
		if r, _, ok := p.table.LookupBytes(tb.Block[s.Off : s.Off+s.Len]); ok {
			row, hit = int32(r), true
		}
		rows = append(rows, row)
	}
	p.rows = rows
	p.keptLines = p.keptLines[:0]
	var prev lineEnd
	lineStart := uint32(0)
	for i, end := range tb.lines {
		f := p.filters[i%len(p.filters)]
		if hit {
			for col, id := range tb.Words[prev.tokEnd:end.tokEnd] {
				if row := rows[id]; row >= 0 {
					f.evalRow(int(row), uint16(col))
				}
			}
		}
		p.keepLine(tb.Block[lineStart:end.byteEnd], f.endLine(uint64(end.wordEnd-prev.wordEnd)))
		lineStart = end.byteEnd + 1
		prev = end
	}
	return p.keptLines, nil
}
