package filter

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
// tokenizer stage found in it: where every token lies, and where every
// line ends. It is the unit the decompressed-page cache stores — in the
// hardware analog, device DRAM holding the tokenizer stage's output — so
// a cached page re-enters the pipeline directly at the hash filters,
// skipping the flash read, the LZAH decompression, the line split, and
// the tokenization.
//
// The hardware would hold padded 16-byte words; a span is 8 bytes per
// token beside text that is there anyway, so a cached page costs about
// 2.3 bytes per raw byte (MemSize) where the words cost 4.5. A
// TokenizedBlock is immutable once built and safe to share between
// concurrent queries.
type TokenizedBlock struct {
	// Block is the decompressed page text; spans index it and kept lines
	// alias it.
	Block []byte
	// Words locates every token of every line, in order. (The name is the
	// datapath's, and the benchmark's: one entry per token, not per
	// 16-byte word.)
	Words []Span
	lines []lineEnd
}

const spanBytes, lineEndBytes = 8, 12 // sizes of Span and lineEnd

// MemSize is the block's resident footprint: the backing arrays of the
// text, the spans and the line ends, by capacity. The page cache budgets
// against it.
func (tb *TokenizedBlock) MemSize() int64 {
	return int64(cap(tb.Block)) + spanBytes*int64(cap(tb.Words)) + lineEndBytes*int64(cap(tb.lines))
}

// Lines reports the number of lines in the block.
func (tb *TokenizedBlock) Lines() int { return len(tb.lines) }

// Tokenize runs the pipeline's tokenizer stage over a newline-separated
// text block (as emitted line-aligned by the decompressor, §5) and
// records the token spans and line ends; the block keeps the text, it
// does not copy it. The tokenizer array's cycle and useful-bit statistics
// accumulate exactly as in FilterBlock, so a miss-path Tokenize followed
// by FilterTokenized is stat-identical to FilterBlock over the same text.
func (p *Pipeline) Tokenize(block []byte) *TokenizedBlock {
	p.spans, p.ends = p.spans[:0], p.ends[:0]
	p.walk(block, true)
	// Right-sized copies out of the reused buffers: these live as long as
	// the page stays cached, and the cache is charged their capacity.
	return &TokenizedBlock{
		Block: block,
		Words: append([]Span(nil), p.spans...),
		lines: append([]lineEnd(nil), p.ends...),
	}
}

// FilterTokenized evaluates a pre-tokenized block against the configured
// query and returns the kept lines (aliasing tb.Block; the slice of them
// is valid until the pipeline's next call), exactly as FilterBlock would
// for the same text: the same round-robin hash-filter assignment,
// verdicts, and line/byte/word accounting. Only the tokenizer array is
// bypassed — the spans were found when the block entered the cache — and
// the text is read only for tokens of a length the query has.
//
//mithrilint:hotpath
func (p *Pipeline) FilterTokenized(tb *TokenizedBlock) ([][]byte, error) {
	if p.filters == nil {
		return nil, errNotConfigured
	}
	p.keptLines = p.keptLines[:0]
	var prev lineEnd
	lineStart := uint32(0)
	for i, end := range tb.lines {
		f := p.filters[i%len(p.filters)]
		for col, s := range tb.Words[prev.tokEnd:end.tokEnd] {
			if p.table.HasLen(int(s.Len)) {
				f.evalToken(tb.Block[s.Off:s.Off+s.Len], uint16(col))
			}
		}
		p.keepLine(tb.Block[lineStart:end.byteEnd], f.endLine(uint64(end.wordEnd-prev.wordEnd)))
		lineStart = end.byteEnd + 1
		prev = end
	}
	return p.keptLines, nil
}
