package filter

import "mithrilog/internal/tokenizer"

// SetMask is a bitmask of satisfied intersection sets for one line: bit i
// is set when intersection set i matched. This is the §8 "tagging each
// log line with template IDs" extension: when each intersection set
// encodes one template, the mask *is* the line's template membership, and
// it falls out of the existing bitmap evaluation at no extra datapath
// cost.
type SetMask uint32

// Has reports whether set i matched.
func (m SetMask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Count returns the number of matched sets.
func (m SetMask) Count() int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// decideMask returns the per-set match mask for the current line; the
// plain keep decision is mask != 0.
func (h *HashFilter) decideMask() SetMask {
	var mask SetMask
	for si := 0; si < h.active; si++ {
		if !h.violated[si] && h.lineBM[si].Equal(h.queryBM[si]) {
			mask |= 1 << uint(si)
		}
	}
	return mask
}

// FeedTagged consumes one datapath word; when the word completes a line it
// returns lineDone=true and the per-set match mask. Together with
// tokenizer.TokenizeLine this is the word-for-word model of the hardware
// that the in-place scan path is pinned to.
//
//mithrilint:hotpath
func (h *HashFilter) FeedTagged(w tokenizer.Word) (lineDone bool, mask SetMask) {
	h.words++
	if w.LastOfToken {
		// Single-word tokens (the common case) evaluate straight from the
		// word's data; only multi-word tokens pay the reassembly copy.
		if len(h.tokBuf) == 0 {
			if w.Len > 0 {
				h.evalToken(w.Data[:w.Len], w.Column)
			}
		} else {
			h.tokBuf = append(h.tokBuf, w.Bytes()...)
			h.evalToken(h.tokBuf, w.Column)
			h.tokBuf = h.tokBuf[:0]
		}
	} else {
		h.tokBuf = append(h.tokBuf, w.Bytes()...)
	}
	if w.LastOfLine {
		mask = h.decideMask()
		h.resetLine()
		h.lines++
		if mask != 0 {
			h.kept++
		}
		return true, mask
	}
	return false, 0
}

// Tagged pairs a kept line with its set mask.
type Tagged struct {
	// Line aliases the scanned block.
	Line []byte
	// Mask has bit i set when intersection set i matched the line.
	Mask SetMask
}

// TagBlock evaluates every line of a newline-separated block and appends
// one SetMask per line to masks, in order — including zero masks for lines
// that match no set. This is the primitive behind §8's template-ID
// tagging: the host receives a tag stream aligned with the line stream.
func (p *Pipeline) TagBlock(masks []SetMask, block []byte) ([]SetMask, error) {
	if err := p.evalBlock(block); err != nil {
		return nil, err
	}
	return append(masks, p.masks...), nil
}

// FilterBlockTagged is FilterBlock returning, for every kept line, the
// mask of intersection sets it satisfied. Lines matching no set are
// filtered out exactly as in FilterBlock.
func (p *Pipeline) FilterBlockTagged(block []byte) ([]Tagged, error) {
	if err := p.evalBlock(block); err != nil {
		return nil, err
	}
	out := make([]Tagged, 0, len(p.keptLines))
	for _, mask := range p.masks {
		if mask != 0 {
			out = append(out, Tagged{Line: p.keptLines[len(out)], Mask: mask})
		}
	}
	return out, nil
}
