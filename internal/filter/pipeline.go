package filter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"mithrilog/internal/cuckoo"
	"mithrilog/internal/hwsim"
	"mithrilog/internal/query"
	"mithrilog/internal/tokenizer"
)

// PipelineConfig sizes one filter pipeline (Figure 3).
type PipelineConfig struct {
	// Tokenizers is the number of tokenizer units (default 8).
	Tokenizers int
	// BytesPerCycle is the per-tokenizer ingest rate (default 2).
	BytesPerCycle int
	// HashFilters is the number of replicated hash filter modules fed by
	// exclusive tokenizer groups (default 2, sized for the ~2x tokenized
	// data amplification, §7.4.1).
	HashFilters int
	// Table sizes the cuckoo hash (rows, sets, overflow).
	Table cuckoo.Config
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Tokenizers <= 0 {
		c.Tokenizers = tokenizer.DefaultTokenizersPerPipeline
	}
	if c.BytesPerCycle <= 0 {
		c.BytesPerCycle = tokenizer.DefaultBytesPerCycle
	}
	if c.HashFilters <= 0 {
		c.HashFilters = 2
	}
	return c
}

// PipelineStats summarizes one pipeline's activity since the last reset.
type PipelineStats struct {
	// Tokenizer holds the aggregate tokenizer-array statistics, including
	// the useful-bit ratio of Figure 13.
	Tokenizer tokenizer.Stats
	// FilterWords is the number of datapath words consumed per hash filter.
	FilterWords []uint64
	// Lines and Kept count processed and query-satisfying lines.
	Lines, Kept uint64
	// RawBytes is the uncompressed text volume processed.
	RawBytes uint64
	// Cycles is the pipeline's busy-cycle estimate: the slowest of the
	// decompressor stage (16 B/cycle), the tokenizer array occupancy, and
	// the busiest hash filter (one word/cycle).
	Cycles uint64
}

// Utilization is the fraction of the pipeline's datapath capacity spent
// streaming useful raw text: RawBytes / (Cycles × WordSize). It is 1.0
// when the pipeline ran at wire speed for the whole query (the decompressor
// stage bound every cycle) and drops when tokenizer occupancy or hash
// filter backpressure stalled the stream — the per-pipeline utilization
// series the observability layer exports.
func (s PipelineStats) Utilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	u := float64(s.RawBytes) / float64(hwsim.CapacityBytes(s.Cycles, tokenizer.WordSize))
	if u > 1 {
		u = 1
	}
	return u
}

// Pipeline is one filter pipeline: an array of tokenizers scattering lines
// round-robin, feeding replicated hash filters in exclusive groups, with
// outputs gathered in line order.
type Pipeline struct {
	cfg     PipelineConfig
	array   *tokenizer.Array
	filters []*HashFilter
	table   *cuckoo.Table

	rawBytes uint64
	lines    uint64
	kept     uint64

	// What the last call found, in buffers every call reuses: each line's
	// mask and the kept lines (evaluating); each token's span, its id and
	// each line's ends (Dictionary; the intern table holds each id's
	// span); each id's table row or -1 (FilterTokenized). Valid until the
	// pipeline's next call.
	masks     []SetMask
	keptLines [][]byte
	spans     []Span
	ids       []uint16
	ends      []lineEnd
	rows      []int32
	intern    interner
}

// NewPipeline builds an unconfigured pipeline; Configure must be called
// with a query before filtering.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	cfg = cfg.withDefaults()
	return &Pipeline{
		cfg:   cfg,
		array: tokenizer.NewArray(cfg.Tokenizers, cfg.BytesPerCycle),
	}
}

// Configure compiles the query into the pipeline's cuckoo table and resets
// per-line state; this mirrors the host sending configuration commands to
// the accelerator before issuing page reads (§3).
func (p *Pipeline) Configure(q query.Query) error {
	tbl, err := cuckoo.Compile(q, p.cfg.Table)
	if err != nil {
		return err
	}
	filters := make([]*HashFilter, p.cfg.HashFilters)
	for i := range filters {
		f, err := NewHashFilter(tbl, len(q.Sets))
		if err != nil {
			return err
		}
		filters[i] = f
	}
	p.table = tbl
	p.filters = filters
	return nil
}

// FilterLines evaluates each line and returns the indices of kept lines,
// in order. A line is what lies between two newlines, so none may contain
// one.
func (p *Pipeline) FilterLines(lines [][]byte) ([]int, error) {
	var block []byte
	for _, line := range lines {
		block = append(append(block, line...), '\n')
	}
	if err := p.evalBlock(block); err != nil {
		return nil, err
	}
	if len(p.masks) != len(lines) {
		return nil, fmt.Errorf("filter: %d lines hold %d newline-separated lines", len(lines), len(p.masks))
	}
	var keptIdx []int
	for i, mask := range p.masks {
		if mask != 0 {
			keptIdx = append(keptIdx, i)
		}
	}
	return keptIdx, nil
}

// FilterBlock splits a newline-separated text block (as emitted
// line-aligned by the decompressor, §5) and returns the kept lines. The
// returned slices alias the input block, and the slice of them is the
// pipeline's own: it is valid until the pipeline's next call.
func (p *Pipeline) FilterBlock(block []byte) ([][]byte, error) {
	if err := p.evalBlock(block); err != nil {
		return nil, err
	}
	return p.keptLines, nil
}

var errNotConfigured = errors.New("filter: pipeline not configured")

// evalBlock evaluates every line of block against the configured query,
// leaving each line's mask in p.masks and the kept lines in p.keptLines.
func (p *Pipeline) evalBlock(block []byte) error {
	if p.filters == nil {
		return errNotConfigured
	}
	p.masks, p.keptLines = p.masks[:0], p.keptLines[:0]
	p.walk(block, false)
	return nil
}

const ( // the delimiters, and the low seven bits, in every byte lane
	spaces   = 0x2020202020202020
	tabs     = 0x0909090909090909
	newlines = 0x0a0a0a0a0a0a0a0a
	low7     = 0x7f7f7f7f7f7f7f7f
)

// zeroBytes returns 0x80 in every byte lane of x that is zero, 0 in every
// other. It is the exact test: the cheaper (x-0x01…)&^x&0x80… also flags
// the lane above a zero lane, so " !" would report '!' as a space.
func zeroBytes(x uint64) uint64 { return ^(((x & low7) + low7) | x | low7) }

// delimiters returns 0x80 in every byte lane of v (eight text bytes, read
// little-endian) that holds a newline (nl), and in every lane that holds
// any token delimiter: space, tab or newline (all). It is the walker's
// test.
func delimiters(v uint64) (nl, all uint64) {
	nl = zeroBytes(v ^ newlines)
	return nl, nl | zeroBytes(v^spaces) | zeroBytes(v^tabs)
}

// walk is the one pass over page text: eight bytes at a time it finds the
// tokens (maximal runs of bytes other than space, tab and newline) and the
// lines (newline-separated; a trailing fragment without one is a line) of
// block, and counts each line's datapath words: a token of n bytes is
// tokenizer.WordsFor(n) words, a line without tokens one marker word.
//
// Evaluating, it books every line on the tokenizer array's current unit
// from its lengths, as TokenizeLine would have, probes each token where it
// lies, hands line i with its word count to hash filter i mod
// len(filters), and appends to p.masks and p.keptLines. Recording
// (Dictionary), it appends to p.spans and p.ends and leaves the array and
// the hash filters alone.
//
//mithrilint:hotpath
func (p *Pipeline) walk(block []byte, record bool) {
	n := len(block)
	unterminated := n > 0 && block[n-1] != '\n'
	var f *HashFilter // of the current line: line i's is filters[i mod n]
	if !record {
		f = p.filters[0]
	}
	lineStart, tokStart := 0, 0 // tokStart: one past the last delimiter seen
	var tokens, words, useful, wordEnd uint64
	for i := 0; i <= n; i += 8 {
		var v uint64
		if i+8 <= n {
			v = binary.LittleEndian.Uint64(block[i:])
		} else {
			// The short last chunk, zero-padded (zero is no delimiter), a
			// newline standing in after an unterminated last line.
			var tail [8]byte
			k := copy(tail[:], block[i:])
			if unterminated {
				tail[k] = '\n'
			}
			v = binary.LittleEndian.Uint64(tail[:])
		}
		nl, delims := delimiters(v)
		for m := delims; m != 0; m &= m - 1 {
			d := i + bits.TrailingZeros64(m)>>3 // the delimiter's offset
			if l := d - tokStart; l > 0 {
				if record {
					p.spans = append(p.spans, Span{Off: uint32(tokStart), Len: uint32(l)})
				} else if p.table.HasLen(l) {
					f.evalToken(block[tokStart:d], uint16(tokens))
				}
				tokens++
				words += tokenizer.WordsFor(l)
				useful += uint64(l)
			}
			tokStart = d + 1
			if nl&m&-m == 0 {
				continue
			}
			if tokens == 0 {
				words = 1
			}
			if record {
				wordEnd += words
				p.ends = append(p.ends, lineEnd{tokEnd: uint32(len(p.spans)), wordEnd: uint32(wordEnd), byteEnd: uint32(d)})
			} else {
				p.array.AccountLine(d-lineStart, tokens, words, useful)
				mask := f.endLine(words)
				p.masks = append(p.masks, mask)
				p.keepLine(block[lineStart:d], mask)
				f = p.filters[len(p.masks)%len(p.filters)]
			}
			lineStart = d + 1
			tokens, words, useful = 0, 0, 0
		}
	}
}

// keepLine books one evaluated line and keeps it if any set matched.
func (p *Pipeline) keepLine(line []byte, mask SetMask) {
	p.rawBytes += uint64(len(line))
	p.lines++
	if mask != 0 {
		p.kept++
		p.keptLines = append(p.keptLines, line)
	}
}

// Stats returns the pipeline's accumulated statistics.
func (p *Pipeline) Stats() PipelineStats {
	ts := p.array.Stats()
	st := PipelineStats{
		Tokenizer: ts,
		Lines:     p.lines,
		Kept:      p.kept,
		RawBytes:  p.rawBytes,
	}
	var maxFilter uint64
	for _, f := range p.filters {
		st.FilterWords = append(st.FilterWords, f.Words())
		if f.Words() > maxFilter {
			maxFilter = f.Words()
		}
	}
	// Decompressor emits WordSize bytes of raw text per cycle; the
	// tokenizer array advances at its occupancy; each hash filter consumes
	// one word per cycle. The pipeline runs at the slowest stage.
	decomp := hwsim.CyclesForBytes(p.rawBytes, tokenizer.WordSize)
	st.Cycles = hwsim.BottleneckCycles(decomp, ts.Cycles, maxFilter)
	return st
}

// ResetStats clears all statistics (the compiled query is retained).
func (p *Pipeline) ResetStats() {
	p.array.ResetStats()
	for _, f := range p.filters {
		f.ResetStats()
	}
	p.rawBytes, p.lines, p.kept = 0, 0, 0
}
