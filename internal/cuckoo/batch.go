package cuckoo

// BatchSize is the number of tokens a batched lookup resolves per probe
// group. Eight independent hash chains keep a superscalar core's multiply
// units busy where the one-token-at-a-time path serializes on each
// byte-by-byte FNV chain; the hardware analog is the hash filter's
// fully-pipelined one-word-per-cycle probe stream (§4.2.3).
const BatchSize = 8

// LookupBatch resolves every token of toks against the table, writing the
// matching row into rows[k] and the row's flag pairs into pairs[k]
// (pairs[k] is nil for a miss). rows and pairs must be at least
// len(toks) long. Results are exactly those of per-token LookupBytes
// calls — same hash functions, same probes — only the evaluation order
// differs: all of a group's hashes are computed before any probe, so the
// chains and the table loads overlap. The batch path allocates nothing.
//
// The engine no longer calls this (the filter probes tokens in place with
// LookupBytes; ROADMAP item 1b). It stays because the frozen benchmark/
// harness times it as cuckoo.lookup_batch_ns: deleting this file needs a
// benchmark PR that drops that metric first.
//
//mithrilint:hotpath
func (t *Table) LookupBatch(toks [][]byte, rows []int32, pairs [][]FlagPair) {
	for len(toks) > BatchSize {
		t.lookupGroup(toks[:BatchSize], rows[:BatchSize], pairs[:BatchSize])
		toks, rows, pairs = toks[BatchSize:], rows[BatchSize:], pairs[BatchSize:]
	}
	if len(toks) > 0 {
		t.lookupGroup(toks, rows, pairs)
	}
}

// lookupGroup probes up to BatchSize tokens in two phases: a hash pass
// computing both chains of every token, then a probe pass. Each token's
// dual chain is independent of its neighbours', so the out-of-order core
// overlaps consecutive tokens' multiply latency across loop iterations;
// keeping the probe loads in their own loop lets them all issue together
// instead of each waiting behind one token's hash.
func (t *Table) lookupGroup(toks [][]byte, rows []int32, pairs [][]FlagPair) {
	n := len(toks)
	var h1, h2 [BatchSize]uint64
	seed1 := uint64(14695981039346656037) ^ t.cfg.Seed
	seed2 := uint64(0x9e3779b97f4a7c15) ^ (t.cfg.Seed * 0x517cc1b727220a95)
	active := uint32(0)
	for k := 0; k < n; k++ {
		pairs[k] = nil
		tok := toks[k]
		if t.lenMask&lenBit(len(tok)) == 0 {
			continue
		}
		active |= 1 << uint(k)
		a, b := seed1, seed2
		for j := 0; j < len(tok); j++ {
			c := uint64(tok[j])
			a = (a ^ c) * 1099511628211
			b = (b ^ c) * 0xff51afd7ed558ccd
		}
		h1[k] = a
		h2[k] = b
	}
	if active == 0 {
		return
	}
	for k := 0; k < n; k++ {
		if active&(1<<uint(k)) == 0 {
			continue
		}
		tok := toks[k]
		i1 := t.reduce(fmix64(h1[k]))
		if e := &t.entries[i1]; e.used && e.token == string(tok) {
			rows[k] = int32(i1)
			pairs[k] = e.pairs
			continue
		}
		i2 := t.reduce(fmix64(h2[k] ^ 0xabcdef1234567890))
		if e := &t.entries[i2]; e.used && e.token == string(tok) {
			rows[k] = int32(i2)
			pairs[k] = e.pairs
		}
	}
}
