// Package lzah implements LZAH ("LZ Aligned Header"), MithriLog's log- and
// hardware-optimized compression algorithm (§5). LZAH derives from LZRW1
// but restructures it for trivially cheap hardware decoders:
//
//   - The compressor slides a fixed 16-byte window across the input in
//     word-aligned steps, eliminating variable-amount shifters. A hash
//     table of recently seen words detects repeats: a repeat emits a
//     one-bit header and the table index; a miss emits a one-bit header
//     and the literal word.
//   - Newline characters realign the window: when the current window
//     contains a newline, only the bytes through the newline are consumed
//     and the window restarts immediately after it, re-synchronizing the
//     word stream with line structure. This recovers most of the
//     compression lost to word-aligned stepping, because log patterns
//     repeat at similar positions in each line. The windowed word is
//     zero-padded after the newline before hashing so the next line's
//     bytes do not pollute the table.
//   - Headers are grouped: 128 header bits (one word) are collected per
//     chunk, followed by the chunk's payloads, padded to a word boundary,
//     so the decoder parses headers without shifting.
//
// Every compressed block is independently decompressible: it carries a
// tiny fixed header and the hash table is rebuilt from block-local data on
// both sides. Blocks therefore map directly onto storage pages (§5,
// "aligning chunks at page boundaries").
//
// Allocation discipline: Compress and Decompress only grow the caller's
// dst — decoding into an arena with sufficient capacity allocates nothing
// (guarded by TestDecompressArenaZeroAllocs and the perf harness's LZAH
// micro leg). The codec is hwpure: output bytes and the DecodeWords cycle
// account are pure functions of the input block, with the cycle counter
// maintained only through hwsim's accounting rules (see LINT.md).
package lzah

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"mithrilog/internal/hwsim"
)

// WordSize is the compression word, matching the filter datapath (§5).
const WordSize = hwsim.DatapathBytes

// ChunkPairs is the number of header-payload pairs per chunk; 128 header
// bits fill exactly one datapath word.
const ChunkPairs = 128

// DefaultTableBytes is the "modestly sized 16 KB hash table" of §7.3.1.
const DefaultTableBytes = 16 * 1024

// TableEntries returns the number of word slots in a table of the given
// byte size.
func TableEntries(tableBytes int) int { return tableBytes / WordSize }

// headerBytes is the per-block header: uncompressed length (u32) followed
// by compressed payload length (u32).
const headerBytes = 8

// ErrCorrupt reports a malformed compressed block.
var ErrCorrupt = errors.New("lzah: corrupt compressed block")

// Options configure the codec. The zero value selects the paper's
// prototype parameters.
type Options struct {
	// TableBytes is the hash table size in bytes (default 16 KiB).
	TableBytes int
	// DisableNewlineAlign turns off the newline window realignment; used
	// by the ablation benchmark to quantify its contribution (§5).
	DisableNewlineAlign bool
}

func (o Options) withDefaults() Options {
	if o.TableBytes <= 0 {
		o.TableBytes = DefaultTableBytes
	}
	return o
}

// Codec compresses and decompresses LZAH blocks. A Codec is stateless
// between blocks (every block is independent) and safe to reuse; it is not
// safe for concurrent use because it owns scratch tables.
//
// The software model holds each 16-byte table word as a pair of uint64
// register halves (little-endian lane order) rather than a byte array:
// window extraction, hashing, and the match compare all run word-at-a-time
// on those halves, mirroring the hardware's registered 128-bit datapath.
// tabLen caches each stored word's emission length (through its newline),
// so match decode never rescans the word. All inner loops are free of heap
// allocation; Compress and Decompress only grow the caller's dst.
type Codec struct {
	opts    Options
	entries int
	// tabLo/tabHi are the stored words' low/high uint64 halves; tabLen is
	// the stored byte length (1..WordSize, newline included).
	tabLo  []uint64
	tabHi  []uint64
	tabLen []uint8
	gen    []uint32 // table generation tags, avoiding O(table) clears per block
	curGen uint32

	// CompressLines' cuts while it runs. They live here rather than in the
	// encoder loop's arguments, which cost Compress, the same loop with no
	// cuts, about 10 % of its throughput in register pressure.
	cuts    []LineCut
	marking bool

	decodeWords uint64 // deterministic one-word-per-cycle decode accounting
}

// NewCodec builds a codec with the given options.
func NewCodec(opts Options) *Codec {
	opts = opts.withDefaults()
	n := TableEntries(opts.TableBytes)
	if n < 1 {
		n = 1
	}
	return &Codec{
		opts:    opts,
		entries: n,
		tabLo:   make([]uint64, n),
		tabHi:   make([]uint64, n),
		tabLen:  make([]uint8, n),
		gen:     make([]uint32, n),
	}
}

// DecodeWords returns the cumulative number of words the decoder emitted;
// the hardware decoder emits exactly one word per cycle (§7.3.1), so this
// doubles as its busy-cycle count.
func (c *Codec) DecodeWords() uint64 { return c.decodeWords }

// ResetStats clears the decode-cycle account.
func (c *Codec) ResetStats() { c.decodeWords = 0 }

// newBlock advances the table generation, logically clearing it.
func (c *Codec) newBlock() {
	c.curGen++
	if c.curGen == 0 { // wrapped: do a real clear
		for i := range c.gen {
			c.gen[i] = 0
		}
		c.curGen = 1
	}
}

// tableSet stores a word (as register halves plus byte length) at idx.
func (c *Codec) tableSet(idx int, lo, hi uint64, n int) {
	c.gen[idx] = c.curGen
	c.tabLo[idx] = lo
	c.tabHi[idx] = hi
	c.tabLen[idx] = uint8(n)
}

// hashWord maps a (zero-padded) window word, given as register halves, to
// a table index: one multiply per half, a xor-shift finalizer, and a
// multiply-high range reduction — the software stand-in for the hardware
// hash unit, at a fixed handful of ALU ops per window instead of a
// byte-serial dependency chain.
func (c *Codec) hashWord(lo, hi uint64) int {
	h := lo*0x9e3779b97f4a7c15 ^ hi*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	q, _ := bits.Mul64(h, uint64(c.entries))
	return int(q)
}

// SWAR byte masks for the newline scan.
const (
	nlLanes  = 0x0a0a0a0a0a0a0a0a
	lsbLanes = 0x0101010101010101
	msbLanes = 0x8080808080808080
)

// nlIndex returns the byte index (0..7) of the first '\n' in the
// little-endian packed word, or 8 when absent — the zero-byte SWAR trick
// applied to x XOR '\n' lanes.
func nlIndex(x uint64) int {
	y := x ^ nlLanes
	m := (y - lsbLanes) &^ y & msbLanes
	if m == 0 {
		return 8
	}
	return bits.TrailingZeros64(m) >> 3
}

// maskWin zeroes the bytes at and above n in the 16-byte window held as
// register halves, producing the zero-padded stored form.
func maskWin(lo, hi uint64, n int) (uint64, uint64) {
	if n >= WordSize {
		return lo, hi
	}
	if n >= 8 {
		return lo, hi & (1<<(uint(n-8)*8) - 1)
	}
	return lo & (1<<(uint(n)*8) - 1), 0
}

// window extracts the next window at src[pos:]: up to WordSize bytes,
// truncated at (and including) the first newline when newline alignment is
// enabled. It returns the zero-padded word as register halves and the
// number of input bytes consumed. The common interior case is two 8-byte
// loads and a SWAR newline scan; only the block tail falls back to the
// byte loop.
func (c *Codec) window(src []byte, pos int) (lo, hi uint64, consumed int) {
	if pos+WordSize <= len(src) {
		lo = binary.LittleEndian.Uint64(src[pos:])
		hi = binary.LittleEndian.Uint64(src[pos+8:])
		n := WordSize
		if !c.opts.DisableNewlineAlign {
			if i := nlIndex(lo); i < 8 {
				n = i + 1
			} else if j := nlIndex(hi); j < 8 {
				n = 8 + j + 1
			}
			lo, hi = maskWin(lo, hi, n)
		}
		return lo, hi, n
	}
	return c.windowTail(src, pos)
}

// windowTail handles the final, shorter-than-a-word stretch of the block.
func (c *Codec) windowTail(src []byte, pos int) (lo, hi uint64, consumed int) {
	var w [WordSize]byte
	n := len(src) - pos
	if !c.opts.DisableNewlineAlign {
		for i := 0; i < n; i++ {
			if src[pos+i] == '\n' {
				n = i + 1
				break
			}
		}
	}
	copy(w[:], src[pos:pos+n])
	lo = binary.LittleEndian.Uint64(w[:8])
	hi = binary.LittleEndian.Uint64(w[8:])
	return lo, hi, n
}

// Compress appends the compressed form of src to dst and returns the
// extended slice. The output layout is:
//
//	[4B uncompressed len][4B compressed payload len][chunks...]
//
// where each chunk is a 16-byte header word (bit i set = pair i is a
// match) followed by payloads: a match payload is a 2-byte little-endian
// table index; a literal payload is the windowed bytes (1..16 bytes; its
// length is implied by newline position or end of block). Chunk payloads
// are padded to a word boundary.
func (c *Codec) Compress(dst, src []byte) []byte {
	return c.compress(dst, src)
}

// LineCut is the encoder state just after a window that ends in a newline:
// everything needed to end the block there. The window never reads past
// its newline, and the table only shapes what comes after it, so a block
// cut at End is byte-identical to Compress of src[:End].
type LineCut struct {
	// End is the length of the source prefix, through the newline.
	End int
	// out is the block length after the window's pair; headerPos is the
	// offset of the open chunk's header word, and headLo/headHi its bits.
	out, headerPos int
	headLo, headHi uint64
}

// Size is the length of the block a cut here yields: the open chunk's
// payloads padded to a word boundary, as Compress would close them.
func (m LineCut) Size() int {
	return m.headerPos + (m.out-m.headerPos+WordSize-1)/WordSize*WordSize
}

// CompressLines is Compress that also appends a LineCut to cuts for every
// window that ends in a newline. Under newline alignment (the default)
// that is every newline of src, so a caller fitting whole lines into a
// page compresses once and cuts once (Cut) instead of re-compressing a
// shorter prefix per attempt.
func (c *Codec) CompressLines(dst, src []byte, cuts []LineCut) ([]byte, []LineCut) {
	c.cuts, c.marking = cuts, true
	dst = c.compress(dst, src)
	cuts, c.cuts, c.marking = c.cuts, nil, false
	return dst, cuts
}

// Cut ends block — the output of one CompressLines call, from its first
// byte — at m, in place, and returns block[:m.Size()]: the block
// Compress(nil, src[:m.End]) would have produced.
func Cut(block []byte, m LineCut) []byte {
	block = block[:m.Size()]
	binary.LittleEndian.PutUint32(block, uint32(m.End))
	binary.LittleEndian.PutUint32(block[4:], uint32(len(block)-headerBytes))
	binary.LittleEndian.PutUint64(block[m.headerPos:], m.headLo)
	binary.LittleEndian.PutUint64(block[m.headerPos+8:], m.headHi)
	clear(block[m.out:])
	return block
}

// compress is the one encoder loop behind Compress and CompressLines;
// while c.marking it appends a LineCut to c.cuts after every window ending
// in a newline.
//
//mithrilint:hotpath
func (c *Codec) compress(dst, src []byte) []byte {
	c.newBlock()
	base := len(dst)
	dst = append(dst, zeroWord[:headerBytes]...)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(src)))

	// The 128 header bits accumulate in two uint64 halves and are stored
	// little-endian, identical to the former per-byte bit sets.
	var headLo, headHi uint64
	pairCount := 0
	headerPos := len(dst)
	dst = append(dst, zeroWord[:]...) // placeholder for first chunk header

	flushChunk := func() {
		binary.LittleEndian.PutUint64(dst[headerPos:], headLo)
		binary.LittleEndian.PutUint64(dst[headerPos+8:], headHi)
		// Pad payloads to a word boundary.
		if rem := (len(dst) - headerPos) % WordSize; rem != 0 {
			dst = append(dst, zeroWord[:WordSize-rem]...)
		}
		headLo, headHi = 0, 0
		pairCount = 0
	}

	pos := 0
	for pos < len(src) {
		if pairCount == ChunkPairs {
			flushChunk()
			headerPos = len(dst)
			dst = append(dst, zeroWord[:]...)
		}
		lo, hi, consumed := c.window(src, pos)
		idx := c.hashWord(lo, hi)
		if c.gen[idx] == c.curGen && c.tabLo[idx] == lo && c.tabHi[idx] == hi {
			if pairCount < 64 {
				headLo |= 1 << uint(pairCount)
			} else {
				headHi |= 1 << uint(pairCount-64)
			}
			dst = append(dst, byte(idx), byte(idx>>8))
		} else {
			c.tableSet(idx, lo, hi, consumed)
			dst = append(dst, src[pos:pos+consumed]...)
		}
		pairCount++
		pos += consumed
		if c.marking && src[pos-1] == '\n' {
			c.cuts = append(c.cuts, LineCut{End: pos, out: len(dst) - base, headerPos: headerPos - base, headLo: headLo, headHi: headHi})
		}
	}
	if pairCount > 0 || len(src) == 0 {
		flushChunk()
	}
	binary.LittleEndian.PutUint32(dst[base+4:], uint32(len(dst)-base-headerBytes))
	return dst
}

// zeroWord is a shared all-zero word used for headers and padding.
var zeroWord [WordSize]byte

// CompressedLen returns the total block length (header + payload) encoded
// at the start of block, without decompressing.
func CompressedLen(block []byte) (int, error) {
	if len(block) < headerBytes {
		return 0, ErrCorrupt
	}
	return headerBytes + int(binary.LittleEndian.Uint32(block[4:])), nil
}

// UncompressedLen returns the original data length encoded in the block.
func UncompressedLen(block []byte) (int, error) {
	if len(block) < headerBytes {
		return 0, ErrCorrupt
	}
	return int(binary.LittleEndian.Uint32(block[:4])), nil
}

// Decompress appends the decompressed contents of one block to dst. It
// mirrors the hardware decoder of Figure 10: header words feed a shift
// register; payload words are parsed per header bit, either indexing the
// table or passing through as literals; the table is maintained
// identically to the compressor by hashing emitted words.
//
// dst is grown to the block's full uncompressed length up front (one
// reallocation at most), so decoding into a reused arena is allocation
// free; a match emits straight from the table's register halves at the
// stored word length, never rescanning for the newline.
//
//mithrilint:hotpath
func (c *Codec) Decompress(dst, block []byte) ([]byte, error) {
	c.newBlock()
	if len(block) < headerBytes {
		return dst, ErrCorrupt
	}
	uncomp := int(binary.LittleEndian.Uint32(block[:4]))
	payloadLen := int(binary.LittleEndian.Uint32(block[4:]))
	if headerBytes+payloadLen > len(block) {
		return dst, fmt.Errorf("%w: payload length %d exceeds block", ErrCorrupt, payloadLen)
	}
	in := block[headerBytes : headerBytes+payloadLen]
	if need := len(dst) + uncomp; cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}

	produced := 0
	pos := 0
	for produced < uncomp {
		// Read one chunk header word into its two uint64 halves.
		if pos+WordSize > len(in) {
			return dst, fmt.Errorf("%w: truncated chunk header", ErrCorrupt)
		}
		headLo := binary.LittleEndian.Uint64(in[pos:])
		headHi := binary.LittleEndian.Uint64(in[pos+8:])
		chunkStart := pos
		pos += WordSize
		for pair := 0; pair < ChunkPairs && produced < uncomp; pair++ {
			var isMatch bool
			if pair < 64 {
				isMatch = headLo>>uint(pair)&1 != 0
			} else {
				isMatch = headHi>>uint(pair-64)&1 != 0
			}
			if isMatch {
				if pos+2 > len(in) {
					return dst, fmt.Errorf("%w: truncated match index", ErrCorrupt)
				}
				idx := int(in[pos]) | int(in[pos+1])<<8
				pos += 2
				if idx >= c.entries {
					return dst, fmt.Errorf("%w: table index %d out of range", ErrCorrupt, idx)
				}
				if c.gen[idx] != c.curGen {
					return dst, fmt.Errorf("%w: match references empty table slot %d", ErrCorrupt, idx)
				}
				n := int(c.tabLen[idx])
				if rem := uncomp - produced; n > rem {
					n = rem
				}
				var w [WordSize]byte
				binary.LittleEndian.PutUint64(w[:8], c.tabLo[idx])
				binary.LittleEndian.PutUint64(w[8:], c.tabHi[idx])
				dst = append(dst, w[:n]...)
				produced += n
			} else {
				remaining := uncomp - produced
				limit := WordSize
				if remaining < limit {
					limit = remaining
				}
				if pos >= len(in) {
					return dst, fmt.Errorf("%w: truncated literal", ErrCorrupt)
				}
				avail := len(in) - pos
				if limit > avail {
					limit = avail
				}
				var lo, hi uint64
				n := limit
				if pos+WordSize <= len(in) {
					lo = binary.LittleEndian.Uint64(in[pos:])
					hi = binary.LittleEndian.Uint64(in[pos+8:])
					if !c.opts.DisableNewlineAlign {
						if i := nlIndex(lo); i < 8 {
							if i+1 < n {
								n = i + 1
							}
						} else if j := nlIndex(hi); j < 8 && 8+j+1 < n {
							n = 8 + j + 1
						}
					}
					lo, hi = maskWin(lo, hi, n)
				} else {
					if !c.opts.DisableNewlineAlign {
						for i := 0; i < limit; i++ {
							if in[pos+i] == '\n' {
								n = i + 1
								break
							}
						}
					}
					var w [WordSize]byte
					copy(w[:], in[pos:pos+n])
					lo = binary.LittleEndian.Uint64(w[:8])
					hi = binary.LittleEndian.Uint64(w[8:])
				}
				c.tableSet(c.hashWord(lo, hi), lo, hi, n)
				dst = append(dst, in[pos:pos+n]...)
				pos += n
				produced += n
			}
			c.decodeWords++
		}
		// Skip the chunk's word-boundary padding.
		if rem := (pos - chunkStart) % WordSize; rem != 0 {
			pos += WordSize - rem
		}
	}
	if produced != uncomp {
		return dst, fmt.Errorf("%w: produced %d of %d bytes", ErrCorrupt, produced, uncomp)
	}
	return dst, nil
}

// Ratio is a convenience: original size divided by compressed size.
func Ratio(originalLen, compressedLen int) float64 {
	if compressedLen == 0 {
		return 0
	}
	return float64(originalLen) / float64(compressedLen)
}
