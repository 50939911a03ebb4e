// Package tokenizer models MithriLog's hardware tokenizer array (§4.1).
//
// Each tokenizer ingests a log line at a fixed number of bytes per cycle
// (two in the prototype) and emits a stream of tokens aligned to the
// datapath: every output word is WordSize bytes, zero-padded, and tagged
// with two single-bit flags — "last word of this token" and "last token of
// this line". Log lines are scattered round-robin across the tokenizers of
// a pipeline and gathered in the same order, so the downstream hash filter
// sees lines in order.
//
// Besides the functional output the package accounts the quantities the
// paper evaluates: useful (non-padding) bytes on the tokenized datapath
// (Figure 13) and the resulting ~2x data amplification that motivates two
// hash filters per pipeline.
//
// The wall-clock scan path builds no Words: filter.Pipeline finds tokens
// where they lie in the page and books the same statistics from their
// lengths (Array.AccountLine), pinned to this model by FuzzSpanVsWord.
//
// Allocation discipline: tokenizing a line into a dst slice with grown
// capacity performs no heap allocation (guarded by
// TestTokenizeLineZeroAllocs). The tokenize loop's cycle accounting is a
// pure function of the input bytes, flowing only through hwsim's
// accounting API, with no wall clock, randomness, or map iteration on the
// path; core's TestScanGolden and the experiment ledger golden
// (cmd/experiments TestLedgerGolden) pin the cycle counts it produces.
package tokenizer

import (
	"fmt"

	"mithrilog/internal/hwsim"
)

// WordSize is the datapath width in bytes. The prototype uses a 128-bit
// (16-byte) datapath (§4), a balance between chip resources and the token
// length distribution.
const WordSize = hwsim.DatapathBytes

// DefaultBytesPerCycle is the per-tokenizer ingest rate chosen by the
// paper's design-space exploration (§4.1).
const DefaultBytesPerCycle = hwsim.TokenizerBytesPerCycle

// DefaultTokenizersPerPipeline is the number of tokenizers instantiated per
// filter pipeline, sized so the array sustains the full 16 B/cycle datapath
// (8 tokenizers × 2 B/cycle).
const DefaultTokenizersPerPipeline = hwsim.TokenizersPerPipeline

// Word is one datapath beat of tokenized output.
type Word struct {
	// Data holds the token bytes, zero-padded to WordSize.
	Data [WordSize]byte
	// Len is the number of useful bytes in Data (0 only for the empty-line
	// marker word).
	Len uint8
	// LastOfToken is set on the final word of a token; a token longer than
	// WordSize spans several words and only the last carries the flag.
	LastOfToken bool
	// LastOfLine is set on the final word of the final token of a line.
	LastOfLine bool
	// Column is the token's position within its line, emitted by the
	// tokenizer in prefix-tree template mode (§4.3).
	Column uint16
}

// Bytes returns the useful bytes of the word (without padding).
func (w Word) Bytes() []byte { return w.Data[:w.Len] }

// String renders the word for debugging.
func (w Word) String() string {
	return fmt.Sprintf("%q(len=%d tok=%v line=%v col=%d)", w.Data[:w.Len], w.Len, w.LastOfToken, w.LastOfLine, w.Column)
}

// isDelimiter matches the reference tokenization in package query: tokens
// are separated by spaces and tabs.
func isDelimiter(b byte) bool { return b == ' ' || b == '\t' }

// Stats accumulates the datapath accounting used by the evaluation.
type Stats struct {
	Lines        uint64 // lines tokenized
	Tokens       uint64 // tokens emitted
	Words        uint64 // datapath words emitted
	InputBytes   uint64 // raw line bytes ingested
	UsefulBytes  uint64 // non-padding bytes on the tokenized datapath
	EmittedBytes uint64 // Words * WordSize (including padding)
	Cycles       uint64 // tokenizer ingest cycles at BytesPerCycle
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Lines += other.Lines
	s.Tokens += other.Tokens
	s.Words += other.Words
	s.InputBytes += other.InputBytes
	s.UsefulBytes += other.UsefulBytes
	s.EmittedBytes += other.EmittedBytes
	hwsim.AddCycles(&s.Cycles, other.Cycles)
}

// UsefulBitRatio is the fraction of the tokenized datapath that carries
// token bytes rather than padding — the quantity plotted in Figure 13.
func (s Stats) UsefulBitRatio() float64 {
	if s.EmittedBytes == 0 {
		return 0
	}
	return float64(s.UsefulBytes) / float64(s.EmittedBytes)
}

// Amplification is the ratio of tokenized datapath traffic (with padding)
// to raw input bytes; the paper observes a factor of about two, which
// drives the two-hash-filters-per-pipeline design (§4.1, §7.4.1).
func (s Stats) Amplification() float64 {
	if s.InputBytes == 0 {
		return 0
	}
	return float64(s.EmittedBytes) / float64(s.InputBytes)
}

// Tokenizer converts raw log lines into datapath words and accounts cycles
// at its configured ingest rate. The zero value is not usable; call New.
type Tokenizer struct {
	bytesPerCycle int
	stats         Stats
}

// New returns a tokenizer ingesting bytesPerCycle bytes per hardware cycle.
func New(bytesPerCycle int) *Tokenizer {
	if bytesPerCycle <= 0 {
		bytesPerCycle = DefaultBytesPerCycle
	}
	return &Tokenizer{bytesPerCycle: bytesPerCycle}
}

// Stats returns the accumulated datapath statistics.
func (t *Tokenizer) Stats() Stats { return t.stats }

// ResetStats clears the accumulated statistics.
func (t *Tokenizer) ResetStats() { t.stats = Stats{} }

// TokenizeLine converts one log line (without trailing newline) into its
// datapath word stream, appending to dst and returning the extended slice.
// An empty line (no tokens) emits a single zero-length word with both flags
// set so downstream modules still observe the line boundary.
//
// The loop accumulates its statistics in locals and folds them into the
// Stats struct once per line, so the steady-state path (dst capacity
// already grown) performs no heap allocation and no per-word stores
// outside the word stream itself.
//
//mithrilint:hotpath
func (t *Tokenizer) TokenizeLine(dst []Word, line []byte) []Word {
	start := len(dst)
	col := uint16(0)
	var tokens, useful uint64
	i := 0
	n := len(line)
	for i < n {
		// Skip delimiters.
		for i < n && isDelimiter(line[i]) {
			i++
		}
		if i >= n {
			break
		}
		tokStart := i
		for i < n && !isDelimiter(line[i]) {
			i++
		}
		tok := line[tokStart:i]
		tokens++
		useful += uint64(len(tok))
		for off := 0; ; off += WordSize {
			var w Word
			w.Column = col
			rem := len(tok) - off
			if rem > WordSize {
				copy(w.Data[:], tok[off:off+WordSize])
				w.Len = WordSize
			} else {
				copy(w.Data[:], tok[off:])
				w.Len = uint8(rem)
				w.LastOfToken = true
			}
			dst = append(dst, w)
			if w.LastOfToken {
				break
			}
		}
		col++
	}
	words := uint64(len(dst) - start)
	if words == 0 {
		// Empty line: emit the line-boundary marker word.
		dst = append(dst, Word{Len: 0, LastOfToken: true, LastOfLine: true})
		words = 1
	} else {
		dst[len(dst)-1].LastOfLine = true
	}
	t.accountLine(n, tokens, words, useful)
	return dst
}

// accountLine books one line — lineLen raw bytes in; tokens tokens of
// useful bytes in all out, on words datapath words (the empty-line marker
// included) — and returns the unit's ingest cycles for it. The ledger is a
// function of these four lengths alone.
func (t *Tokenizer) accountLine(lineLen int, tokens, words, useful uint64) uint64 {
	cycles := hwsim.CyclesForBytes(uint64(lineLen), uint64(t.bytesPerCycle))
	t.stats.Lines++
	t.stats.Tokens += tokens
	t.stats.Words += words
	t.stats.InputBytes += uint64(lineLen)
	t.stats.UsefulBytes += useful
	t.stats.EmittedBytes += words * WordSize
	hwsim.AddCycles(&t.stats.Cycles, cycles)
	return cycles
}

// WordsFor is the number of datapath words a token of n bytes occupies.
func WordsFor(n int) uint64 { return uint64(n+WordSize-1) / WordSize }
