package rex

import (
	"encoding/binary"
	"slices"
)

// The lazy DFA executes the Thompson NFA one table load per input byte.
// A DFA state is a set of NFA states — the byte-consuming ones, plus the
// `$` assertions still pending — interned with an at-start bit, because
// `^` holds only at offset 0. Its transitions are built on first use, one
// per byte class, and cached in a flat table; the cache is flushed when it
// would outgrow dfaCacheBudget, so a pattern whose DFA is exponential costs
// about one NFA step per byte, never unbounded memory. The start closure
// is seeded at every offset (unanchored search), and Match stops at the
// first accept, since it only answers whether a match exists.

// dfaCacheBudget bounds the bytes one Regexp's DFA cache accounts for:
// transition rows, NFA-state sets, intern keys and a per-state overhead.
// Log patterns need a few dozen states and byte classes (a few KiB); only
// a pattern whose DFA blows up (`[ab]*a[ab][ab]...`) ever reaches it.
const dfaCacheBudget = 256 << 10

// dfaStateOverhead is the per-state bookkeeping charged beyond a state's
// row, set and key bytes: its map entry, set offset and end-of-input flag.
const dfaStateOverhead = 48

// Transition sentinels. Built transitions are row offsets, so ≥ 0.
const (
	dfaUnbuilt int32 = -1 // not computed yet
	dfaAccept  int32 = -2 // reaches the match state
)

type dfa struct {
	states []state // the NFA
	entry  int32   // NFA start state

	classOf [256]uint8 // byte → byte class: the column within a row
	stride  int        // number of byte classes

	// trans holds one row of stride entries per DFA state; state k's row
	// starts at offset k·stride, and each entry is the next state's row
	// offset or a sentinel.
	trans []int32
	// eolAccept[k] reports whether state k's pending `$` assertions reach
	// the match state at end of input.
	eolAccept []bool
	// sets[setEnd[k-1]:setEnd[k]] is state k's sorted NFA-state set.
	sets   []int32
	setEnd []int32
	ids    map[string]int32 // intern key (set + at-start bit) → row offset
	start  int32            // the offset-0 state's row, or a sentinel

	bytes   int // cache bytes accounted against dfaCacheBudget
	flushes int // cache flushes so far

	// scratch for building states
	seeds, stack, set []int32
	mark              []uint32 // mark[s] == gen: NFA state s already visited
	gen               uint32
	key               []byte
}

func newDFA(states []state, entry int32) dfa {
	d := dfa{
		states: states,
		entry:  entry,
		ids:    make(map[string]int32),
		start:  dfaUnbuilt,
		mark:   make([]uint32, len(states)),
	}
	d.classOf, d.stride = byteClasses(states)
	return d
}

// byteClasses partitions the byte values into classes that no consuming
// state tells apart: a class boundary falls at each opChar byte, at each
// edge of a class's membership, and around '\n' for '.'.
func byteClasses(states []state) (classOf [256]uint8, n int) {
	var edge [257]bool // edge[b]: a class begins at byte b
	for i := range states {
		st := &states[i]
		switch st.op {
		case opChar:
			edge[st.c], edge[int(st.c)+1] = true, true
		case opAny:
			edge['\n'], edge['\n'+1] = true, true
		case opClass:
			for b := 1; b < 256; b++ {
				if st.class.contains(byte(b)) != st.class.contains(byte(b-1)) {
					edge[b] = true
				}
			}
		}
	}
	id := 0
	for b := 0; b < 256; b++ {
		if b > 0 && edge[b] {
			id++
		}
		classOf[b] = uint8(id)
	}
	return classOf, id + 1
}

// match runs the DFA over b.
func (d *dfa) match(b []byte) bool {
	s := int(d.start)
	if s == int(dfaUnbuilt) {
		s = int(d.buildStart())
	}
	if s == int(dfaAccept) {
		return true
	}
	trans, classOf := d.trans, &d.classOf
	for _, c := range b {
		next := int(trans[s+int(classOf[c])])
		if next < 0 {
			if next == int(dfaAccept) {
				return true
			}
			next = int(d.step(s, c))
			if next == int(dfaAccept) {
				return true
			}
			trans = d.trans
		}
		s = next
	}
	return d.eolAccept[s/d.stride]
}

// buildStart interns the offset-0 state: the start closure with `^`
// holding.
func (d *dfa) buildStart() int32 {
	d.seeds = append(d.seeds[:0], d.entry)
	set, accept := d.closure(d.seeds, true, false)
	if accept {
		d.start = dfaAccept
	} else {
		d.start = d.intern(set, true)
	}
	return d.start
}

// step computes the transition of the state at row on byte c and caches
// it — unless interning the next state flushed the cache, which took the
// row with it.
func (d *dfa) step(row int, c byte) int32 {
	k := row / d.stride
	lo := int32(0)
	if k > 0 {
		lo = d.setEnd[k-1]
	}
	seeds := d.seeds[:0]
	for _, si := range d.sets[lo:d.setEnd[k]] {
		if st := &d.states[si]; st.consumes(c) {
			seeds = append(seeds, st.out)
		}
	}
	d.seeds = append(seeds, d.entry) // a match may start at the next offset
	set, accept := d.closure(d.seeds, false, false)
	if accept {
		d.trans[row+int(d.classOf[c])] = dfaAccept
		return dfaAccept
	}
	flushes := d.flushes
	next := d.intern(set, false)
	if d.flushes == flushes {
		d.trans[row+int(d.classOf[c])] = next
	}
	return next
}

// closure returns the sorted set of consuming and pending-`$` states
// reachable from seeds by ε-moves, and whether the match state is: `^`
// is followed only atStart and `$` only atEnd. The set is scratch, valid
// until the next call.
func (d *dfa) closure(seeds []int32, atStart, atEnd bool) (set []int32, accept bool) {
	d.gen++
	if d.gen == 0 {
		clear(d.mark)
		d.gen = 1
	}
	set = d.set[:0]
	stack := append(d.stack[:0], seeds...)
	for len(stack) > 0 {
		si := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if si < 0 || d.mark[si] == d.gen {
			continue
		}
		d.mark[si] = d.gen
		switch st := &d.states[si]; st.op {
		case opSplit:
			stack = append(stack, st.out1, st.out)
		case opBOL:
			if atStart {
				stack = append(stack, st.out)
			}
		case opEOL:
			if atEnd {
				stack = append(stack, st.out)
			} else {
				set = append(set, si)
			}
		case opMatch:
			accept = true
		default:
			set = append(set, si)
		}
	}
	slices.Sort(set)
	d.stack, d.set = stack, set
	return set, accept
}

// intern returns the row of the state (set, atStart), adding it — after
// flushing the cache if it would outgrow dfaCacheBudget — when new. An
// empty cache always takes the state, so a pattern too large for the
// budget still makes progress.
func (d *dfa) intern(set []int32, atStart bool) int32 {
	key := d.key[:0]
	for _, si := range set {
		key = binary.LittleEndian.AppendUint32(key, uint32(si))
	}
	if atStart {
		key = append(key, 1)
	}
	d.key = key
	if row, ok := d.ids[string(key)]; ok {
		return row
	}
	cost := 4*d.stride + 4*len(set) + len(key) + dfaStateOverhead
	if d.bytes > 0 && d.bytes+cost > dfaCacheBudget {
		d.flush()
	}
	row := int32(len(d.trans))
	d.ids[string(key)] = row
	d.bytes += cost
	for range d.stride {
		d.trans = append(d.trans, dfaUnbuilt)
	}
	d.sets = append(d.sets, set...)
	d.setEnd = append(d.setEnd, int32(len(d.sets)))
	// The state's pending `$` assertions, followed at end of input.
	seeds := d.seeds[:0]
	for _, si := range set {
		if st := &d.states[si]; st.op == opEOL {
			seeds = append(seeds, st.out)
		}
	}
	d.seeds = seeds
	_, accept := d.closure(seeds, atStart, true)
	d.eolAccept = append(d.eolAccept, accept)
	return row
}

// flush empties the cache, keeping its buffers' capacity.
func (d *dfa) flush() {
	clear(d.ids)
	d.trans, d.eolAccept = d.trans[:0], d.eolAccept[:0]
	d.sets, d.setEnd = d.sets[:0], d.setEnd[:0]
	d.start = dfaUnbuilt
	d.bytes = 0
	d.flushes++
}
