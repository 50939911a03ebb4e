package core

import (
	"encoding/binary"
	"math/bits"

	"mithrilog/internal/filter"
	"mithrilog/internal/storage"
)

// indexPage is the one page indexer, shared by ingest (flushPending) and
// ReopenEngine, so a reopened index is bit-for-bit the index ingest built.
// It splits a page's text once, eight bytes at a time, at exactly the
// delimiters the scan path's walker uses (filter.Delimiters: space, tab,
// newline), keeps each token the first time the page shows it, and hands
// those to the index in first-seen order through one Index.AddPage. It
// returns the page's lines, counted as the scan path counts them (a
// trailing fragment without a newline is a line), and the tokens it
// indexed.
//
//mithrilint:hotpath
func (e *Engine) indexPage(text []byte, id storage.PageID) (lines, tokens int, err error) {
	e.pageSet.reset()
	toks := e.pageToks[:0]
	n := len(text)
	tokStart := 0 // one past the last delimiter seen
	for i := 0; i < n; i += 8 {
		var v uint64
		if i+8 <= n {
			v = binary.LittleEndian.Uint64(text[i:])
		} else {
			// The short last chunk, zero-padded: zero is no delimiter.
			var tail [8]byte
			copy(tail[:], text[i:])
			v = binary.LittleEndian.Uint64(tail[:])
		}
		nl, delims := filter.Delimiters(v)
		lines += bits.OnesCount64(nl)
		for m := delims; m != 0; m &= m - 1 {
			d := i + bits.TrailingZeros64(m)>>3
			if d > tokStart && e.pageSet.add(text, tokStart, d) {
				toks = append(toks, text[tokStart:d])
			}
			tokStart = d + 1
		}
	}
	if n > 0 && text[n-1] != '\n' {
		lines++
		if tokStart < n && e.pageSet.add(text, tokStart, n) {
			toks = append(toks, text[tokStart:n])
		}
	}
	e.pageToks = toks
	err = e.ix.AddPage(toks, id)
	// The footprint is a counter read, so mithrilog_index_memory_bytes
	// tracks ingest page by page instead of waiting for the next flush.
	e.met.indexMemoryBytes.Set(float64(e.ix.MemoryFootprint()))
	return lines, len(toks), err
}

// tokenSet is the per-page set of distinct tokens behind indexPage. Most
// tokens on a page repeat one seen earlier on it, so the set is built for
// the repeat: open addressing with linear probing, keyed by a
// word-at-a-time hash of the token, each slot holding the token's span in
// the page text, so a hash hit is verified byte for byte and no key is
// ever copied. A generation counter empties it per page without touching
// the slots.
type tokenSet struct {
	slots []tokenSlot // power-of-two length, at most half full
	gen   uint64      // the current page's generation, in the high 32 bits
	n     int         // tokens in the current generation
}

// tokenSlot is one token of a page: the page's generation (high 32 bits)
// beside the low 32 bits of the token's hash, so a repeat is recognized
// with one compare before its bytes are verified, and its span in the
// page text.
type tokenSlot struct {
	key       uint64
	off, size uint32
}

// minTokenSlots holds a typical page's distinct tokens (about 140 for the
// loggen profiles) at under a quarter load in 16 KiB.
const minTokenSlots = 1024

// reset starts a new page.
func (s *tokenSet) reset() {
	if cap(s.slots) == 0 {
		s.slots = make([]tokenSlot, minTokenSlots)
	}
	s.gen += 1 << 32
	if s.gen == 0 { // wrapped: do a real clear
		clear(s.slots)
		s.gen = 1 << 32
	}
	s.n = 0
}

// add inserts the token text[off:end] and reports whether it was new to
// the page.
func (s *tokenSet) add(text []byte, off, end int) bool {
	h := uint32(spanHash(text, off, end))
	key, n := s.gen|uint64(h), uint32(end-off)
	slots, mask := s.slots, uint32(len(s.slots)-1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &slots[i]
		if sl.key == key {
			if sl.size == n && spanEqual(text, int(sl.off), off, int(n)) {
				return false
			}
		} else if sl.key < s.gen { // a slot of an earlier page: free
			*sl = tokenSlot{key: key, off: uint32(off), size: n}
			s.n++
			s.grow()
			return true
		}
	}
}

// grow doubles the table once it is half full, re-placing the current
// page's tokens by their stored hashes.
func (s *tokenSet) grow() {
	if 2*s.n > cap(s.slots) {
		old := s.slots
		s.slots = make([]tokenSlot, 2*len(old))
		mask := uint32(len(s.slots) - 1)
		for _, sl := range old {
			if sl.key < s.gen {
				continue
			}
			i := uint32(sl.key) & mask
			for s.slots[i].key >= s.gen {
				i = (i + 1) & mask
			}
			s.slots[i] = sl
		}
	}
}

// spanEqual reports whether text[a:a+n] and text[b:b+n] hold the same
// bytes, for a < b: eight bytes per compare, the tail as one masked
// compare when the text runs on past the later span.
func spanEqual(text []byte, a, b, n int) bool {
	for ; n >= 8; a, b, n = a+8, b+8, n-8 {
		if binary.LittleEndian.Uint64(text[a:]) != binary.LittleEndian.Uint64(text[b:]) {
			return false
		}
	}
	if n == 0 {
		return true
	}
	if b+8 <= len(text) {
		x := binary.LittleEndian.Uint64(text[a:]) ^ binary.LittleEndian.Uint64(text[b:])
		return x&(1<<(8*uint(n))-1) == 0
	}
	return string(text[a:a+n]) == string(text[b:b+n])
}

// spanHash hashes text[off:end] eight bytes per multiply. The tail is one
// masked load when the text runs on past it, bytes otherwise. Only the
// per-page set uses it, and the set verifies every hit, so it need match
// no other hash; the index keeps its own (FNV-1a), computed only for the
// tokens the set admits.
func spanHash(text []byte, off, end int) uint64 {
	h := uint64(end-off) * 0x9e3779b97f4a7c15
	for ; off+8 <= end; off += 8 {
		h = (h ^ binary.LittleEndian.Uint64(text[off:])) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	if r := end - off; r > 0 {
		var w uint64
		if off+8 <= len(text) {
			w = binary.LittleEndian.Uint64(text[off:]) & (1<<(8*uint(r)) - 1)
		} else {
			for i := end - 1; i >= off; i-- {
				w = w<<8 | uint64(text[i])
			}
		}
		h = (h ^ w) * 0xbf58476d1ce4e5b9
	}
	return h ^ h>>32 // the product's well-mixed high half into the low
}
