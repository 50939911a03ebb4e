package tokenizer

import (
	"bytes"

	"mithrilog/internal/hwsim"
)

// Array models the scatter/gather tokenizer array of one filter pipeline
// (§4.1): lines are distributed round-robin across the tokenizers and the
// tokenized output is collected in the same order, assuring in-order
// processing at the hash filter. The array also models the pipeline-level
// cycle accounting: the array as a whole advances at the rate of its
// slowest member within each round-robin turn, capturing the line-length
// imbalance the paper cites as a minor throughput loss (§7.4.1).
type Array struct {
	units []*Tokenizer
	// turnCycles accumulates, per complete round-robin turn, the maximum
	// per-unit ingest cycles — the stall-aware array occupancy.
	turnCycles uint64
	turnMax    uint64
	turnFill   int // lines booked in the current turn: the next line's unit
}

// NewArray builds an array of n tokenizers at the given per-unit rate.
func NewArray(n, bytesPerCycle int) *Array {
	if n <= 0 {
		n = DefaultTokenizersPerPipeline
	}
	a := &Array{units: make([]*Tokenizer, n)}
	for i := range a.units {
		a.units[i] = New(bytesPerCycle)
	}
	return a
}

// TokenizeLine feeds one line through the array's current round-robin
// unit, appending its word stream to dst: the streaming per-line entry
// point of the word model, equivalent to a single-line TokenizeLines call
// without a one-element batch slice, allocating nothing beyond dst growth.
//
//mithrilint:hotpath
func (a *Array) TokenizeLine(dst []Word, line []byte) []Word {
	unit := a.units[a.turnFill]
	before := unit.stats.Cycles
	dst = unit.TokenizeLine(dst, line)
	a.account(unit.stats.Cycles - before)
	return dst
}

// AccountLine books a line on the array's current round-robin unit from
// its lengths alone and advances the turn exactly as TokenizeLine does for
// the same line. It is the scan path's entry point (filter.Pipeline finds
// tokens in place and builds no Words).
//
//mithrilint:hotpath
func (a *Array) AccountLine(lineLen int, tokens, words, useful uint64) {
	unit := a.units[a.turnFill]
	a.account(unit.accountLine(lineLen, tokens, words, useful))
}

// TokenizeLines scatters the lines round-robin, tokenizes, and gathers the
// word streams back in original line order (appended to dst). The
// round-robin position persists across calls, so streaming one line at a
// time still rotates through the units.
func (a *Array) TokenizeLines(dst []Word, lines [][]byte) []Word {
	for _, line := range lines {
		dst = a.TokenizeLine(dst, line)
	}
	return dst
}

// TokenizeBlock splits a newline-separated text block into lines and feeds
// them through the array. A trailing fragment without a final newline is
// treated as a complete line, matching the decompressor's line-aligned
// output contract (§5).
func (a *Array) TokenizeBlock(dst []Word, block []byte) []Word {
	for len(block) > 0 {
		nl := bytes.IndexByte(block, '\n')
		var line []byte
		if nl < 0 {
			line, block = block, nil
		} else {
			line, block = block[:nl], block[nl+1:]
		}
		dst = a.TokenizeLine(dst, line)
	}
	return dst
}

func (a *Array) account(cycles uint64) {
	if cycles > a.turnMax {
		a.turnMax = cycles
	}
	a.turnFill++
	if a.turnFill == len(a.units) {
		hwsim.AddCycles(&a.turnCycles, a.turnMax)
		a.turnMax, a.turnFill = 0, 0
	}
}

// Stats returns the aggregate statistics across all units. Cycles is
// replaced by the stall-aware array occupancy: the sum over round-robin
// turns of the slowest unit's cycles (plus the current partial turn).
func (a *Array) Stats() Stats {
	var total Stats
	for _, u := range a.units {
		total.Add(u.Stats())
	}
	total.Cycles = hwsim.SumCycles(a.turnCycles, a.turnMax)
	return total
}

// ResetStats clears all unit and array statistics.
func (a *Array) ResetStats() {
	for _, u := range a.units {
		u.ResetStats()
	}
	a.turnCycles, a.turnMax, a.turnFill = 0, 0, 0
}
