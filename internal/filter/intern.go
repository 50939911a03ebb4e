package filter

import "encoding/binary"

// SpanEqual reports whether text[a:a+n] and text[b:b+n] hold the same
// bytes, for a < b: eight bytes per compare, the tail as one masked
// compare when the text runs on past the later span.
func SpanEqual(text []byte, a, b, n int) bool {
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

// SpanHash hashes text[off:end] eight bytes per multiply. The tail is one
// masked load when the text runs on past it, bytes otherwise. Its users —
// the engine's per-page token set and Tokenize's intern table — verify
// every hit, so it need match no other hash; the index keeps its own
// (FNV-1a).
func SpanHash(text []byte, off, end int) uint64 {
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

// internBits sizes Tokenize's intern table: 2,048 slots of 4 bytes, for
// pages of about 120 distinct tokens (Liberty2), so a repeat rarely finds
// its slot taken by another token, and the table stays in L1 beside the
// page it codes.
const internBits = 11

// longToken marks the key of a token over 15 bytes, whose key is a hash
// and must be verified: its top byte, where a shorter token's key holds
// the token's length.
const longToken = 0xff << 56

// internKey is a dictionary entry's key: for a token of at most 15 bytes,
// its bytes as two words with its length in the top byte of the second;
// for a longer one, its hash and longToken.
type internKey struct{ a, b uint64 }

// interner assigns page-local token ids for Tokenize. It is lossy and
// direct-mapped: a token whose slot another token took since it was last
// seen gets a second id. The rule it keeps is "same id ⇒ same bytes",
// which is all an evaluation by id needs; a repeat that misses its slot
// only costs one more dictionary entry and one more probe per query.
//
// A slot holds the generation (the Tokenize call) that wrote it in its
// high half and an id in its low half; the id's key, in keys, decides
// the match. A token of at most 15 bytes is keyed by its length and its
// bytes, so a key match needs no hash loop and no verify. A longer token
// is keyed by SpanHash, and a key match is verified against the bytes of
// the id's dictionary span.
type interner struct {
	slots *[1 << internBits]uint32
	gen   uint32 // the current Tokenize call's, below 1<<16; slots of others are free
	keys  []internKey
}

// next starts a new page.
func (in *interner) next() {
	if in.slots == nil {
		in.slots = new([1 << internBits]uint32)
	}
	in.gen++
	if in.gen == 1<<16 { // wrapped: do a real clear
		clear(in.slots[:])
		in.gen = 1
	}
}

// internSpans codes the tokens walk recorded in p.spans as ids in p.ids,
// with one span per id in p.dict, in the intern table's current
// generation (interner.next).
//
//mithrilint:hotpath
func (p *Pipeline) internSpans(block []byte) {
	in := &p.intern
	ids, dict, keys, slots, gen := p.ids[:0], p.dict[:0], in.keys[:0], in.slots, in.gen
	for _, s := range p.spans {
		off, n := int(s.Off), int(s.Len)
		var k internKey
		switch {
		case n < 16 && off+16 <= len(block):
			// Both words, each masked to its share of the token
			// without a branch on the length (a shift by 64 or more is
			// 0 in Go): a branch there mispredicts half the time.
			k.a = binary.LittleEndian.Uint64(block[off:]) & (1<<(8*uint(n)) - 1)
			k.b = binary.LittleEndian.Uint64(block[off+8:])&(^uint64(0)>>(8*uint(16-n))) | uint64(n)<<56
		case n < 16:
			k.b = uint64(n) << 56
			if n <= 8 {
				k.a = loadTail(block, off, off+n)
			} else {
				k.a = binary.LittleEndian.Uint64(block[off:])
				k.b |= loadTail(block, off+8, off+n)
			}
		default:
			k.a, k.b = SpanHash(block, off, off+n), longToken
		}
		sl := &slots[((k.a^k.b*0xbf58476d1ce4e5b9)*0x9e3779b97f4a7c15)>>(64-internBits)]
		if *sl>>16 == gen {
			id := uint16(*sl)
			if keys[id] == k && (k.b != longToken ||
				dict[id].Len == s.Len && SpanEqual(block, int(dict[id].Off), off, n)) {
				ids = append(ids, id)
				continue
			}
		}
		id := uint16(len(dict))
		dict = append(dict, s)
		keys = append(keys, k)
		*sl = gen<<16 | uint32(id)
		ids = append(ids, id)
	}
	p.ids, p.dict, in.keys = ids, dict, keys
}
