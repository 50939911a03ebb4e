package cuckoo

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mithrilog/internal/query"
)

func pairsFor(sets int, set int, neg bool) []FlagPair {
	p := make([]FlagPair, sets)
	p[set] = FlagPair{Valid: true, Negative: neg, Column: AnyColumn}
	return p
}

func TestInsertLookup(t *testing.T) {
	tbl := New(Config{Rows: 64, Sets: 4})
	tokens := []string{"RAS", "KERNEL", "INFO", "FATAL", "pbs_mom:", "ib_sm.x[24426]:"}
	for i, tok := range tokens {
		if err := tbl.Insert(tok, pairsFor(4, i%4, false)); err != nil {
			t.Fatalf("insert %q: %v", tok, err)
		}
	}
	if tbl.Occupied() != len(tokens) {
		t.Fatalf("occupied = %d", tbl.Occupied())
	}
	for i, tok := range tokens {
		row, pairs, ok := tbl.Lookup(tok)
		if !ok {
			t.Fatalf("lookup %q failed", tok)
		}
		if !pairs[i%4].Valid || pairs[i%4].Negative {
			t.Fatalf("flags wrong for %q: %+v", tok, pairs)
		}
		if row < 0 || row >= 64 {
			t.Fatalf("row out of range: %d", row)
		}
		// Byte-slice lookup must agree.
		row2, _, ok2 := tbl.LookupBytes([]byte(tok))
		if !ok2 || row2 != row {
			t.Fatalf("LookupBytes disagrees for %q", tok)
		}
	}
	if _, _, ok := tbl.Lookup("absent"); ok {
		t.Fatal("lookup of absent token succeeded")
	}
}

func TestInsertMergesSets(t *testing.T) {
	tbl := New(Config{Rows: 32, Sets: 4})
	if err := tbl.Insert("tok", pairsFor(4, 0, false)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("tok", pairsFor(4, 2, true)); err != nil {
		t.Fatal(err)
	}
	_, pairs, ok := tbl.Lookup("tok")
	if !ok || !pairs[0].Valid || pairs[0].Negative || !pairs[2].Valid || !pairs[2].Negative || pairs[1].Valid {
		t.Fatalf("merged pairs wrong: %+v", pairs)
	}
	if tbl.Occupied() != 1 {
		t.Fatalf("merge should not add rows: %d", tbl.Occupied())
	}
}

func TestInsertConflictingPolarity(t *testing.T) {
	tbl := New(Config{Rows: 32, Sets: 2})
	if err := tbl.Insert("x", pairsFor(2, 0, false)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("x", pairsFor(2, 0, true)); err == nil {
		t.Fatal("conflicting polarity in one set must fail")
	}
}

func TestOverflowAccounting(t *testing.T) {
	tbl := New(Config{Rows: 32, Sets: 1, OverflowWords: 3})
	short := "short"
	if err := tbl.Insert(short, pairsFor(1, 0, false)); err != nil {
		t.Fatal(err)
	}
	if tbl.OverflowWordsUsed() != 0 {
		t.Fatal("short token must not use overflow")
	}
	long1 := strings.Repeat("a", 17) // 1 overflow word
	long2 := strings.Repeat("b", 49) // 3 overflow words -> would exceed cap
	if err := tbl.Insert(long1, pairsFor(1, 0, false)); err != nil {
		t.Fatal(err)
	}
	if tbl.OverflowWordsUsed() != 1 {
		t.Fatalf("overflow used = %d, want 1", tbl.OverflowWordsUsed())
	}
	if err := tbl.Insert(long2, pairsFor(1, 0, false)); !errors.Is(err, ErrOverflowFull) {
		t.Fatalf("want ErrOverflowFull, got %v", err)
	}
	// The long token that did fit must still be retrievable.
	if _, _, ok := tbl.Lookup(long1); !ok {
		t.Fatal("long token lost")
	}
}

func TestOverflowWordsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {16, 0}, {17, 1}, {32, 1}, {33, 2}, {48, 2}, {49, 3},
	}
	for _, c := range cases {
		if got := overflowWordsFor(c.n); got != c.want {
			t.Errorf("overflowWordsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLoadFactorBelowHalfSucceeds(t *testing.T) {
	// Cuckoo placement succeeds w.h.p. below the 0.5 threshold (the paper
	// over-provisions rows for exactly this reason). Test at load 0.45.
	rng := rand.New(rand.NewSource(7))
	failures := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		tbl := New(Config{Rows: 256, Sets: 1, Seed: uint64(trial)})
		ok := true
		for i := 0; i < 115; i++ {
			tok := fmt.Sprintf("token-%d-%d", trial, rng.Int63())
			if err := tbl.Insert(tok, pairsFor(1, 0, false)); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			failures++
		}
	}
	if failures > 3 {
		t.Fatalf("placement failed in %d/%d trials at load 0.45", failures, trials)
	}
}

func TestPlacementEventuallyFails(t *testing.T) {
	// Overfilling a tiny table must produce ErrPlacementFailed, not loop.
	tbl := New(Config{Rows: 8, Sets: 1})
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = tbl.Insert(fmt.Sprintf("t%d", i), pairsFor(1, 0, false))
	}
	if !errors.Is(err, ErrPlacementFailed) && !errors.Is(err, ErrOverflowFull) {
		t.Fatalf("expected placement failure, got %v", err)
	}
}

func TestCompileBasic(t *testing.T) {
	q := query.MustParse(`(RAS AND KERNEL AND NOT FATAL) OR (APP AND FATAL)`)
	tbl, err := Compile(q, Config{Rows: 64, Sets: 8})
	if err != nil {
		t.Fatal(err)
	}
	// FATAL participates in two sets with different polarity: one row.
	if tbl.Occupied() != 4 {
		t.Fatalf("occupied = %d, want 4 distinct tokens", tbl.Occupied())
	}
	_, pairs, ok := tbl.Lookup("FATAL")
	if !ok {
		t.Fatal("FATAL missing")
	}
	if !pairs[0].Valid || !pairs[0].Negative || !pairs[1].Valid || pairs[1].Negative {
		t.Fatalf("FATAL pairs: %+v", pairs)
	}
	bms := tbl.QueryBitmaps()
	if len(bms) != 8 {
		t.Fatalf("bitmaps = %d", len(bms))
	}
	// Set 0 positives: RAS, KERNEL. Set 1 positives: APP, FATAL.
	if bms[0].Count() != 2 || bms[1].Count() != 2 {
		t.Fatalf("bitmap counts: %d, %d", bms[0].Count(), bms[1].Count())
	}
	for i := 2; i < 8; i++ {
		if bms[i].Count() != 0 {
			t.Fatalf("unused set %d has bits", i)
		}
	}
}

func TestCompileTooManySets(t *testing.T) {
	var qs []query.Query
	for i := 0; i < 9; i++ {
		qs = append(qs, query.Single(query.NewTerm(fmt.Sprintf("t%d", i))))
	}
	combined := qs[0].Or(qs[1:]...)
	if _, err := Compile(combined, Config{Rows: 64, Sets: 8}); !errors.Is(err, ErrTooManySets) {
		t.Fatalf("want ErrTooManySets, got %v", err)
	}
}

func TestCompileConflictingColumns(t *testing.T) {
	q := query.Single(query.NewTerm("A").At(0), query.NewTerm("A").At(3))
	if _, err := Compile(q, Config{Rows: 64, Sets: 8}); !errors.Is(err, ErrConflictingColumns) {
		t.Fatalf("want ErrConflictingColumns, got %v", err)
	}
	// Different columns in different sets are fine.
	q2 := query.New(
		query.Intersection{}.And(query.NewTerm("A").At(0)),
		query.Intersection{}.And(query.NewTerm("A").At(3)),
	)
	tbl, err := Compile(q2, Config{Rows: 64, Sets: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, pairs, _ := tbl.Lookup("A")
	if pairs[0].Column != 0 || pairs[1].Column != 3 {
		t.Fatalf("columns: %+v", pairs)
	}
}

func TestCompileRetriesSeeds(t *testing.T) {
	// With 300 tokens into 256 rows placement cannot succeed; Compile must
	// return the placement error rather than hang.
	var terms []query.Term
	for i := 0; i < 300; i++ {
		terms = append(terms, query.NewTerm(fmt.Sprintf("tok%03d", i)))
	}
	q := query.Single(terms...)
	if _, err := Compile(q, Config{Rows: 256, Sets: 8}); err == nil {
		t.Fatal("expected failure above capacity")
	}
}

func TestQuickInsertedAlwaysFound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := New(Config{Rows: 128, Sets: 2, Seed: uint64(seed)})
		inserted := make(map[string]bool)
		for i := 0; i < 60; i++ {
			n := rng.Intn(40) + 1
			b := make([]byte, n)
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			tok := string(b)
			if err := tbl.Insert(tok, pairsFor(2, rng.Intn(2), rng.Intn(2) == 0)); err != nil {
				if errors.Is(err, ErrPlacementFailed) || errors.Is(err, ErrOverflowFull) {
					break
				}
				// Polarity conflicts possible on duplicate tokens; skip.
				continue
			}
			inserted[tok] = true
		}
		for tok := range inserted {
			if _, _, ok := tbl.Lookup(tok); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMayHoldIsLookupsRejection pins MayHold to LookupBytes: a token of
// any length 1–70 and any first byte that MayHold rules out misses, and
// every stored token passes. The stored tokens' first bytes share their
// low six bits with other bytes ('A' 0x41, 0x01, 0x81, 0xC1), and lengths
// from 63 up share one length bit; each probe is a stored token of its
// length with its first byte swapped, so the text matches but for the
// byte MayHold was asked about.
func TestMayHoldIsLookupsRejection(t *testing.T) {
	stored := []string{
		"A", "Abc", "\x81x", "\xc1" + strings.Repeat("y", 69),
		"z" + strings.Repeat("w", 63), "\xff-" + strings.Repeat("v", 30), "\x7fq",
	}
	tbl := New(Config{Rows: 64, Sets: 2})
	byLen := map[int]string{}
	for i, tok := range stored {
		if err := tbl.Insert(tok, pairsFor(2, i%2, false)); err != nil {
			t.Fatalf("insert %q: %v", tok, err)
		}
		if !tbl.MayHold(len(tok), tok[0]) {
			t.Errorf("MayHold(%d, %#x) is false for stored %q", len(tok), tok[0], tok)
		}
		byLen[len(tok)] = tok
	}
	for n := 1; n <= 70; n++ {
		tail := strings.Repeat("y", n-1)
		if tok, ok := byLen[n]; ok {
			tail = tok[1:]
		}
		for b := 0; b < 256; b++ {
			tok := append([]byte{byte(b)}, tail...)
			if _, _, hit := tbl.LookupBytes(tok); hit && !tbl.MayHold(n, byte(b)) {
				t.Fatalf("MayHold(%d, %#x) is false, but LookupBytes(%q) hits", n, b, tok)
			}
		}
	}
}

func TestBitmapOps(t *testing.T) {
	b := NewBitmap(256)
	if len(b) != 4 {
		t.Fatalf("bitmap words = %d", len(b))
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(255)
	if b.Count() != 4 {
		t.Fatalf("count = %d", b.Count())
	}
	for _, i := range []int{0, 63, 64, 255} {
		if !b.Test(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Test(1) || b.Test(128) {
		t.Error("unset bits read as set")
	}
	c := b.Clone()
	if !b.Equal(c) {
		t.Error("clone not equal")
	}
	c.Clear(64)
	if b.Equal(c) || c.Test(64) {
		t.Error("clear failed or aliased")
	}
	c.Reset()
	if c.Count() != 0 {
		t.Error("reset failed")
	}
	if b.Equal(NewBitmap(128)) {
		t.Error("different lengths must not be equal")
	}
}

func BenchmarkLookupBytes(b *testing.B) {
	tbl := New(Config{Rows: 256, Sets: 8})
	toks := make([][]byte, 100)
	for i := range toks {
		tok := fmt.Sprintf("token-%d", i)
		toks[i] = []byte(tok)
		if i < 100 {
			_ = tbl.Insert(tok, pairsFor(8, i%8, false))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.LookupBytes(toks[i%len(toks)])
	}
}
