package filter

import (
	"encoding/binary"
	"math/bits"
)

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
// masked load when the text runs on past it, bytes otherwise. The intern
// table verifies every hit, so it need match no other hash; the index
// keeps its own (FNV-1a).
func spanHash(text []byte, off, end int) uint64 {
	h := uint64(end-off) * 0x9e3779b97f4a7c15
	for ; off+8 <= end; off += 8 {
		h = (h ^ binary.LittleEndian.Uint64(text[off:])) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	if r := end - off; r > 0 {
		h = (h ^ loadTail(text, off, end)) * 0xbf58476d1ce4e5b9
	}
	return h ^ h>>32 // the product's well-mixed high half into the low
}

// loadTail returns the at most eight bytes text[off:end] as a
// little-endian word: one masked load when the text runs on past them.
func loadTail(text []byte, off, end int) uint64 {
	if off+8 <= len(text) {
		return binary.LittleEndian.Uint64(text[off:]) & (1<<(8*uint(end-off)) - 1)
	}
	var w uint64
	for i := end - 1; i >= off; i-- {
		w = w<<8 | uint64(text[i])
	}
	return w
}

// internBits sizes the intern table as a page starts it: 1,024 slots of
// 4 bytes, for pages of about 150 distinct tokens (Liberty2), so a probe
// rarely passes another token's slot, and the table, with the 513
// dictionary entries and keys it has room for, stays in L1 beside the
// page it codes. A page with more than 512 distinct tokens doubles it, and
// the pipeline keeps that size.
const internBits = 10

// longToken marks the key of a token over 15 bytes, whose key is a hash
// and must be verified: its top byte, where a shorter token's key holds
// the token's length.
const longToken = 0xff << 56

// internKey is a dictionary entry's key: for a token of at most 15 bytes,
// its bytes as two words with its length in the top byte of the second;
// for a longer one, its hash and longToken.
type internKey struct{ a, b uint64 }

// slot is the key's home slot in a table of 1<<(64-shift) slots.
func (k internKey) slot(shift uint) int {
	return int(((k.a ^ bits.RotateLeft64(k.b, 29)) * 0x9e3779b97f4a7c15) >> shift)
}

// interner assigns page-local token ids: the page dictionary's table. It
// is exact — equal bytes get one id, and one id names equal bytes — an
// open-addressed table with linear probing, at most half full.
//
// A slot holds the generation (the page) that wrote it in its high half
// and an id in its low half; the id's key, in keys, decides the match. A
// token of at most 15 bytes is keyed by its length and its bytes, so a
// key match needs no hash loop and no verify. A longer token is keyed by
// spanHash, and a key match is verified against the bytes of the id's
// dictionary span.
type interner struct {
	slots []uint32 // a power of two long
	shift uint     // 64 - log2(len(slots))
	gen   uint32   // the current page's, below 1<<16; slots of others are free
	// Each id's span and key, with room for the most ids a page can make
	// before the table grows: half its slots, and the id that grows it.
	dict []Span
	keys []internKey
}

// next starts a new page.
func (in *interner) next() {
	if cap(in.slots) == 0 {
		in.slots, in.shift = make([]uint32, 1<<internBits), 64-internBits
		in.dict, in.keys = make([]Span, 1<<(internBits-1)+1), make([]internKey, 1<<(internBits-1)+1)
	}
	in.gen++
	if in.gen == 1<<16 { // wrapped: do a real clear
		clear(in.slots)
		in.gen = 1
	}
}

// grow doubles the table, and the room beside it, and re-places the
// page's first n ids from their keys. It doubles each by appending it to
// itself: growth by append on a reused buffer is the form the hot-path
// allocation check accepts.
func (in *interner) grow(n int) {
	in.slots = append(in.slots, in.slots...)
	in.dict, in.keys = append(in.dict, in.dict...), append(in.keys, in.keys...)
	in.shift--
	clear(in.slots)
	mask := len(in.slots) - 1
	for id, k := range in.keys[:n] {
		i := k.slot(in.shift)
		for in.slots[i]>>16 == in.gen {
			i = (i + 1) & mask
		}
		in.slots[i] = in.gen<<16 | uint32(id)
	}
}

// internSpans codes the tokens walk recorded in p.spans as ids in p.ids,
// in the intern table's current generation (interner.next), and returns
// how many are distinct: the first that many entries of p.intern.dict
// hold one span per distinct token, in first-seen order.
//
//mithrilint:hotpath
func (p *Pipeline) internSpans(block []byte) (distinct int) {
	in := &p.intern
	spans := p.spans
	if cap(p.ids) < len(spans) {
		p.ids = make([]uint16, len(spans))
	}
	ids := p.ids[:len(spans)]
	// One run per table size. A run ends when its table is half full, and
	// the next one starts on the grown table, so within a run the loop
	// carries only the count from token to token: it writes by index, and
	// the table, the dictionary and the keys stay put.
	for j := 0; j < len(spans); {
		slots, dict, keys, gen, shift := in.slots, in.dict, in.keys, in.gen, in.shift
	run:
		for ; j < len(spans); j++ {
			s := spans[j]
			off, n := int(s.Off), int(s.Len)
			var k internKey
			switch {
			case n < 16 && off+16 <= len(block):
				// Both words, each masked to its share of the token
				// without a branch on the length (a shift by 64 or
				// more is 0 in Go): a branch there mispredicts half
				// the time.
				w := block[off : off+16 : off+16]
				k.a = binary.LittleEndian.Uint64(w) & (1<<(8*uint(n)) - 1)
				k.b = binary.LittleEndian.Uint64(w[8:])&(^uint64(0)>>(8*uint(16-n))) | uint64(n)<<56
			case n < 16:
				k.b = uint64(n) << 56
				if n <= 8 {
					k.a = loadTail(block, off, off+n)
				} else {
					k.a = binary.LittleEndian.Uint64(block[off:])
					k.b |= loadTail(block, off+8, off+n)
				}
			default:
				k.a, k.b = spanHash(block, off, off+n), longToken
			}
			for i := k.slot(shift); ; i = (i + 1) & (len(slots) - 1) {
				sl := slots[i]
				if sl>>16 != gen { // free: a new token
					dict[distinct], keys[distinct] = s, k
					ids[j] = uint16(distinct)
					slots[i] = gen<<16 | uint32(distinct)
					distinct++
					if 2*distinct > len(slots) {
						j++
						break run
					}
					break
				}
				if id := uint16(sl); keys[id] == k && (k.b != longToken ||
					dict[id].Len == s.Len && spanEqual(block, int(dict[id].Off), off, n)) {
					ids[j] = id
					break
				}
			}
		}
		if 2*distinct > len(slots) {
			in.grow(distinct)
		}
	}
	p.ids = ids
	return distinct
}
