// Package filter implements MithriLog's token filter: the hash filter
// module that evaluates a line's tokens against a cuckoo-encoded query
// (§4.2.3), and the filter pipeline that composes tokenizers and hash
// filters behind a decompressor at wire speed (Figure 3).
//
// A Pipeline scatters decompressed lines round-robin across its
// tokenizers and hash filters. The hardware moves tokens as zero-padded
// 16-byte words (~2x the data, hence two hash filters per pipeline);
// software has no use for the padding, so the scan path finds tokens where
// they lie in the page (Pipeline.walk), probes them in place, and books
// the words and cycles from the token lengths alone. TokenizeLine and
// FeedTagged remain as the word-for-word model; FuzzSpanVsWord pins the
// two token for token, verdict for verdict and count for count.
//
// Per-set match bitmaps let a single pass answer a union of up to
// cuckoo.MaxSets intersection sets, which the engine uses both for
// batched query demultiplexing and wire-speed template tagging.
//
// Besides its functional output every pipeline accounts the busy cycles
// each component would spend on the modeled hardware; PipelineStats
// carries the counts and derives the utilization figures (fraction of
// wire speed, Figure 13) that internal/hwsim converts to GB/s and the
// engine exports as metrics (see OBSERVABILITY.md).
package filter

import (
	"fmt"

	"mithrilog/internal/cuckoo"
	"mithrilog/internal/tokenizer"
)

// HashFilter evaluates the tokens of a line against a compiled query. For
// each line it keeps one bitmap per intersection set, with one bit per
// hash table row; a positive term that fires sets its row bit in that
// set's bitmap, and a negative term that fires marks the set violated. At
// line end, the line is kept iff some active set's bitmap exactly equals
// the set's query bitmap and the set was not violated.
//
// The hardware consumes one datapath word per cycle; Words() exposes the
// consumed-word count as the module's cycle account.
type HashFilter struct {
	table    *cuckoo.Table
	queryBM  []cuckoo.Bitmap
	lineBM   []cuckoo.Bitmap
	violated []bool
	active   int // number of intersection sets actually used by the query

	// fired: a token of the current line hit the table. idleMask is the
	// verdict of a line on which none did — not always zero: a set with
	// only negated terms is satisfied by the empty bitmap.
	fired    bool
	idleMask SetMask

	tokBuf []byte // multi-word token reassembly (word model only)

	words uint64 // datapath words consumed (== busy cycles)
	lines uint64
	kept  uint64
}

// NewHashFilter builds a filter around a compiled table. active is the
// number of intersection sets the query uses; the remaining flag pairs are
// ignored (hardware leaves them invalid).
func NewHashFilter(table *cuckoo.Table, active int) (*HashFilter, error) {
	if active <= 0 || active > table.Sets() {
		return nil, fmt.Errorf("filter: active sets %d out of range 1..%d", active, table.Sets())
	}
	h := &HashFilter{
		table:    table,
		queryBM:  table.QueryBitmaps(),
		active:   active,
		lineBM:   make([]cuckoo.Bitmap, table.Sets()),
		violated: make([]bool, table.Sets()),
	}
	for i := range h.lineBM {
		h.lineBM[i] = cuckoo.NewBitmap(table.Rows())
	}
	h.idleMask = h.decideMask()
	return h, nil
}

// Words returns the number of datapath words consumed; at one word per
// cycle this is the module's busy-cycle count.
func (h *HashFilter) Words() uint64 { return h.words }

// Lines returns the number of completed lines observed.
func (h *HashFilter) Lines() uint64 { return h.lines }

// Kept returns the number of lines that satisfied the query.
func (h *HashFilter) Kept() uint64 { return h.kept }

// ResetStats clears the word/line counters (not the per-line state).
func (h *HashFilter) ResetStats() { h.words, h.lines, h.kept = 0, 0, 0 }

// evalToken probes the token at position col of the line and folds a hit
// into the line state.
func (h *HashFilter) evalToken(tok []byte, col uint16) {
	row, pairs, ok := h.table.LookupBytes(tok)
	if !ok {
		return
	}
	h.fired = true
	for si := 0; si < h.active; si++ {
		p := pairs[si]
		if !p.Valid {
			continue
		}
		if p.Column != cuckoo.AnyColumn && p.Column != int16(col) {
			continue
		}
		if p.Negative {
			h.violated[si] = true
		} else {
			h.lineBM[si].Set(row)
		}
	}
}

// endLine closes a line whose tokens went through evalToken and that
// takes words datapath words: it returns the line's set mask, skipping
// the bitmap compare and the reset when nothing fired.
func (h *HashFilter) endLine(words uint64) SetMask {
	h.words += words
	h.lines++
	mask := h.idleMask
	if h.fired {
		mask = h.decideMask()
		h.resetLine()
	}
	if mask != 0 {
		h.kept++
	}
	return mask
}

func (h *HashFilter) resetLine() {
	for si := 0; si < h.active; si++ {
		h.lineBM[si].Reset()
		h.violated[si] = false
	}
	h.fired = false
}

// FeedLine feeds one line's word stream, as tokenizer.TokenizeLine emits
// it, through FeedTagged and returns the keep decision. The words must
// form exactly one line (final word flagged LastOfLine, no other).
func (h *HashFilter) FeedLine(words []tokenizer.Word) (bool, error) {
	for i, w := range words {
		if done, mask := h.FeedTagged(w); done {
			if i != len(words)-1 {
				return false, fmt.Errorf("filter: line terminated early at word %d/%d", i+1, len(words))
			}
			return mask != 0, nil
		}
	}
	return false, fmt.Errorf("filter: word stream did not terminate a line")
}
