// Package cuckoo implements the query-encoding cuckoo hash table at the
// heart of MithriLog's hash filter (§4.2). Queries are compiled into a
// table in which each distinct token occupies one entry; the entry carries
// one (valid, negative) flag pair per intersection set, plus the optional
// column constraint used for prefix-tree templates (§4.3). Tokens longer
// than the 16-byte slot spill into an overflow table, mirroring the
// hardware layout, and the package accounts slot and overflow usage so the
// resource model can reason about chip occupancy.
//
// Collisions are resolved with two hash functions and eviction chains;
// insertion fails (ErrPlacementFailed) if the chain cycles, in which case
// the caller must fall back to software evaluation — exactly the behaviour
// the paper describes. Cuckoo tables statistically succeed below a load
// factor of 0.5, and the prototype over-provisions rows accordingly.
//
// Allocation discipline: the lookup paths — Lookup, LookupBytes, and the
// batched LookupBatch — allocate nothing (guarded by
// TestLookupBatchZeroAllocs and the filter's AllocsPerRun pins; timed by
// the benchmark's cuckoo.lookup_ns and cuckoo.lookup_batch_ns); only query
// compilation allocates. Lookups are also hwpure: results and any
// cycle-relevant behavior depend only on the table contents and the probed
// bytes, never on wall clock, randomness, or map iteration order.
package cuckoo

import (
	"errors"
	"fmt"

	"mithrilog/internal/query"
	"mithrilog/internal/tokenizer"
)

// DefaultRows is the number of hash table rows in the prototype (§4.2.2).
const DefaultRows = 256

// DefaultSets is the number of (valid, negative) flag pairs per entry,
// bounding the number of intersection sets a single offloaded query may
// contain (§4.2.2).
const DefaultSets = 8

// DefaultOverflowWords is the capacity, in 16-byte words, of the overflow
// table for tokens longer than the in-row slot.
const DefaultOverflowWords = 256

// SlotBytes is the token storage provisioned inside each hash entry,
// matching the datapath width.
const SlotBytes = tokenizer.WordSize

// AnyColumn mirrors query.AnyColumn for column-constraint flag pairs.
const AnyColumn = int16(-1)

// ErrPlacementFailed reports that cuckoo insertion fell into a cycle; the
// query cannot be offloaded and must run on the software path.
var ErrPlacementFailed = errors.New("cuckoo: placement failed (eviction cycle)")

// ErrTooManySets reports a query with more intersection sets than the
// table has flag pairs.
var ErrTooManySets = errors.New("cuckoo: query has more intersection sets than flag pairs")

// ErrOverflowFull reports that the overflow table cannot hold the query's
// long tokens.
var ErrOverflowFull = errors.New("cuckoo: overflow table capacity exceeded")

// ErrConflictingColumns reports a token used twice within one intersection
// set under different column constraints, which one flag pair cannot encode.
var ErrConflictingColumns = errors.New("cuckoo: token has conflicting column constraints within one intersection set")

// FlagPair is the per-intersection-set state of a hash entry.
type FlagPair struct {
	// Valid marks the token as participating in this intersection set.
	Valid bool
	// Negative marks the token as a negated term of the set.
	Negative bool
	// Column restricts the match to a token position; AnyColumn disables
	// the restriction. Only meaningful when Valid.
	Column int16
}

// Entry is one row of the cuckoo hash table.
type Entry struct {
	used  bool
	token string
	pairs []FlagPair
}

// Used reports whether the row holds a token.
func (e *Entry) Used() bool { return e.used }

// Token returns the stored token ("" when unused).
func (e *Entry) Token() string { return e.token }

// Pairs returns the entry's flag pairs (one per intersection set).
func (e *Entry) Pairs() []FlagPair { return e.pairs }

// Config sizes a Table.
type Config struct {
	Rows          int // hash table rows (default DefaultRows)
	Sets          int // flag pairs per entry (default DefaultSets)
	OverflowWords int // overflow table capacity in 16-byte words (default DefaultOverflowWords)
	// MaxEvictions bounds an insertion's displacement chain before
	// declaring a cycle. Zero selects a bound proportional to table size.
	MaxEvictions int
	// Seed perturbs the two hash functions; distinct seeds let a caller
	// retry a failed placement, as real cuckoo deployments do.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = DefaultRows
	}
	if c.Sets <= 0 {
		c.Sets = DefaultSets
	}
	if c.OverflowWords <= 0 {
		c.OverflowWords = DefaultOverflowWords
	}
	if c.MaxEvictions <= 0 {
		c.MaxEvictions = 4 * c.Rows
	}
	return c
}

// Table is the compiled query: a cuckoo hash of tokens with per-set flags.
type Table struct {
	cfg     Config
	entries []Entry
	// overflowUsed counts 16-byte overflow words consumed by long tokens.
	overflowUsed int
	occupied     int
	// lenMask has bit min(len,63) set for every stored token length: a
	// pure software fast path letting lookups reject tokens of absent
	// lengths before hashing. The modeled hardware probes its dual-ported
	// Block RAM in one cycle either way, so this changes no lookup result
	// and no cycle account — only host wall-clock cost.
	lenMask uint64
	// firstMask has bit b&63 set for the first byte b of every stored
	// token: the same fast path one step later, sparing LookupBytes both
	// hashes of most tokens that merely have a stored length.
	firstMask uint64
}

// lenBit maps a token length to its lenMask bit; lengths ≥63 share one.
func lenBit(n int) uint64 {
	if n > 63 {
		n = 63
	}
	return 1 << uint(n)
}

// HasLen reports whether any stored token is n bytes long (lengths ≥63
// share one answer): false means LookupBytes would miss, so a scan asks
// this before it so much as reads a token's bytes.
func (t *Table) HasLen(n int) bool { return t.lenMask&lenBit(n) != 0 }

// New creates an empty table.
func New(cfg Config) *Table {
	cfg = cfg.withDefaults()
	return &Table{cfg: cfg, entries: make([]Entry, cfg.Rows)}
}

// Rows returns the number of hash table rows.
func (t *Table) Rows() int { return t.cfg.Rows }

// Sets returns the number of flag pairs per entry.
func (t *Table) Sets() int { return t.cfg.Sets }

// Occupied returns the number of used rows.
func (t *Table) Occupied() int { return t.occupied }

// OverflowWordsUsed returns the number of overflow words consumed.
func (t *Table) OverflowWordsUsed() int { return t.overflowUsed }

// Entry returns row i for inspection.
func (t *Table) Entry(i int) *Entry { return &t.entries[i] }

// fmix64 is the murmur3 finalizer; it gives both hash functions full
// avalanche so bucket choices behave like independent random functions.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// reduce maps a full-avalanche hash onto a row index. Modulo keeps the
// mapping identical to the seed implementation (placement statistics and
// golden row assignments depend on it); profiling showed the divide is
// dwarfed by the fmix multiplies on the probe path, so a multiply-high
// reduction is not worth a mapping change here.
func (t *Table) reduce(h uint64) int {
	return int(h % uint64(t.cfg.Rows))
}

func (t *Table) hash1(tok string) int {
	h := uint64(14695981039346656037) ^ t.cfg.Seed
	for i := 0; i < len(tok); i++ {
		h ^= uint64(tok[i])
		h *= 1099511628211
	}
	return t.reduce(fmix64(h))
}

func (t *Table) hash2(tok string) int {
	h := uint64(0x9e3779b97f4a7c15) ^ (t.cfg.Seed * 0x517cc1b727220a95)
	for i := 0; i < len(tok); i++ {
		h = (h ^ uint64(tok[i])) * 0xff51afd7ed558ccd
	}
	return t.reduce(fmix64(h ^ 0xabcdef1234567890))
}

// overflowWordsFor returns the overflow words a token of length n needs.
func overflowWordsFor(n int) int {
	if n <= SlotBytes {
		return 0
	}
	return (n - SlotBytes + SlotBytes - 1) / SlotBytes
}

// Insert places a token with the given flag pairs, merging pairs if the
// token is already present (a token may participate in several sets).
func (t *Table) Insert(tok string, pairs []FlagPair) error {
	if len(pairs) != t.cfg.Sets {
		return fmt.Errorf("cuckoo: got %d flag pairs, table has %d sets", len(pairs), t.cfg.Sets)
	}
	// Merge into an existing entry if present.
	if idx, ok := t.find(tok); ok {
		return t.mergePairs(idx, pairs)
	}
	need := overflowWordsFor(len(tok))
	if t.overflowUsed+need > t.cfg.OverflowWords {
		return ErrOverflowFull
	}
	e := Entry{used: true, token: tok, pairs: append([]FlagPair(nil), pairs...)}
	if err := t.place(e); err != nil {
		return err
	}
	t.overflowUsed += need
	t.occupied++
	t.lenMask |= lenBit(len(tok))
	if len(tok) > 0 {
		t.firstMask |= 1 << (tok[0] & 63)
	}
	return nil
}

func (t *Table) mergePairs(idx int, pairs []FlagPair) error {
	dst := t.entries[idx].pairs
	for i, p := range pairs {
		if !p.Valid {
			continue
		}
		if !dst[i].Valid {
			dst[i] = p
			continue
		}
		// Same token twice in one set: only consistent constraints merge.
		if dst[i].Negative != p.Negative || dst[i].Column != p.Column {
			if dst[i].Column != p.Column {
				return ErrConflictingColumns
			}
			return fmt.Errorf("cuckoo: token %q is both positive and negative in set %d", t.entries[idx].token, i)
		}
	}
	return nil
}

// place inserts a new entry, preferring whichever of its two slots is
// free, and otherwise running the cuckoo displacement loop from each
// starting slot in turn — a cycle blocking the walk rooted at one slot
// does not necessarily block the other. On failure every displacement
// chain is unwound so previously inserted tokens stay intact.
func (t *Table) place(e Entry) error {
	s1, s2 := t.hash1(e.token), t.hash2(e.token)
	if !t.entries[s1].used {
		t.entries[s1] = e
		return nil
	}
	if !t.entries[s2].used {
		t.entries[s2] = e
		return nil
	}
	if t.walkFrom(e, s1) || t.walkFrom(e, s2) {
		return nil
	}
	return ErrPlacementFailed
}

// walkFrom runs one displacement walk starting at slot; on cycle
// detection it unwinds the swaps in reverse so the table is exactly as
// before the attempt and reports failure.
func (t *Table) walkFrom(e Entry, slot int) bool {
	cur := e
	var path []int
	for hop := 0; hop < t.cfg.MaxEvictions; hop++ {
		if !t.entries[slot].used {
			t.entries[slot] = cur
			return true
		}
		// Evict the resident and move it to its alternate location.
		cur, t.entries[slot] = t.entries[slot], cur
		path = append(path, slot)
		if alt := t.hash1(cur.token); alt != slot {
			slot = alt
		} else {
			slot = t.hash2(cur.token)
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		s := path[i]
		cur, t.entries[s] = t.entries[s], cur
	}
	return false
}

// find locates a token's row.
func (t *Table) find(tok string) (int, bool) {
	if t.lenMask&lenBit(len(tok)) == 0 {
		return 0, false
	}
	h1 := t.hash1(tok)
	if e := &t.entries[h1]; e.used && e.token == tok {
		return h1, true
	}
	h2 := t.hash2(tok)
	if e := &t.entries[h2]; e.used && e.token == tok {
		return h2, true
	}
	return 0, false
}

// Lookup probes both hash locations for the token and returns the matching
// row index and its flag pairs. Hardware performs both probes in a single
// cycle against dual-ported Block RAM; at most one row can match.
func (t *Table) Lookup(tok string) (row int, pairs []FlagPair, ok bool) {
	idx, ok := t.find(tok)
	if !ok {
		return 0, nil, false
	}
	return idx, t.entries[idx].pairs, true
}

// LookupBytes is Lookup over a byte slice without forcing the caller to
// allocate a string: the filter probes tokens where they lie in the page.
//
//mithrilint:hotpath
func (t *Table) LookupBytes(tok []byte) (row int, pairs []FlagPair, ok bool) {
	if t.lenMask&lenBit(len(tok)) == 0 {
		return 0, nil, false
	}
	if len(tok) > 0 && t.firstMask&(1<<(tok[0]&63)) == 0 {
		return 0, nil, false
	}
	h1 := t.hashBytes1(tok)
	if e := &t.entries[h1]; e.used && e.token == string(tok) {
		return h1, e.pairs, true
	}
	h2 := t.hashBytes2(tok)
	if e := &t.entries[h2]; e.used && e.token == string(tok) {
		return h2, e.pairs, true
	}
	return 0, nil, false
}

func (t *Table) hashBytes1(tok []byte) int {
	h := uint64(14695981039346656037) ^ t.cfg.Seed
	for _, b := range tok {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return t.reduce(fmix64(h))
}

func (t *Table) hashBytes2(tok []byte) int {
	h := uint64(0x9e3779b97f4a7c15) ^ (t.cfg.Seed * 0x517cc1b727220a95)
	for _, b := range tok {
		h = (h ^ uint64(b)) * 0xff51afd7ed558ccd
	}
	return t.reduce(fmix64(h ^ 0xabcdef1234567890))
}

// Compile encodes a query into a fresh table, retrying placement with
// perturbed seeds a few times before giving up. The returned table, plus
// the query bitmaps from QueryBitmaps, fully configure a hash filter.
func Compile(q query.Query, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(q.Sets) > cfg.Sets {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManySets, len(q.Sets), cfg.Sets)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Group terms by token across sets so each token is inserted once.
	type tokenPlan struct {
		tok   string
		pairs []FlagPair
	}
	var plans []tokenPlan
	index := make(map[string]int)
	for si, set := range q.Sets {
		for _, term := range set.Terms {
			pi, ok := index[term.Token]
			if !ok {
				pi = len(plans)
				index[term.Token] = pi
				plans = append(plans, tokenPlan{tok: term.Token, pairs: make([]FlagPair, cfg.Sets)})
			}
			col := AnyColumn
			if term.Column != query.AnyColumn {
				col = int16(term.Column)
			}
			p := &plans[pi].pairs[si]
			if p.Valid {
				if p.Negative != term.Negated || p.Column != col {
					if p.Column != col {
						return nil, ErrConflictingColumns
					}
					return nil, fmt.Errorf("cuckoo: token %q is both positive and negative in set %d", term.Token, si)
				}
				continue
			}
			*p = FlagPair{Valid: true, Negative: term.Negated, Column: col}
		}
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		cfgTry := cfg
		cfgTry.Seed = cfg.Seed + uint64(attempt)*0x6a09e667f3bcc909
		tbl := New(cfgTry)
		lastErr = nil
		for _, p := range plans {
			if err := tbl.Insert(p.tok, p.pairs); err != nil {
				lastErr = err
				break
			}
		}
		if lastErr == nil {
			return tbl, nil
		}
		if !errors.Is(lastErr, ErrPlacementFailed) {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// QueryBitmaps returns, per intersection set, the bitmap of rows whose
// entry is a positive (valid, non-negative) term of that set (§4.2.3). A
// line satisfies set i when its accumulated bitmap equals bitmap i and no
// negative term of set i fired.
func (t *Table) QueryBitmaps() []Bitmap {
	out := make([]Bitmap, t.cfg.Sets)
	for i := range out {
		out[i] = NewBitmap(t.cfg.Rows)
	}
	for row := range t.entries {
		e := &t.entries[row]
		if !e.used {
			continue
		}
		for si, p := range e.pairs {
			if p.Valid && !p.Negative {
				out[si].Set(row)
			}
		}
	}
	return out
}
