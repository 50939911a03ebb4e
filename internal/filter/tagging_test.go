package filter

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mithrilog/internal/query"
)

func TestSetMaskOps(t *testing.T) {
	var m SetMask
	if m.Count() != 0 || m.Has(0) {
		t.Fatal("zero mask")
	}
	m = 0b1011
	if !m.Has(0) || !m.Has(1) || m.Has(2) || !m.Has(3) {
		t.Fatal("Has")
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d", m.Count())
	}
}

func TestTagBlockPerLineMasks(t *testing.T) {
	p := NewPipeline(PipelineConfig{})
	q := query.MustParse(`(alpha) OR (beta AND NOT gamma)`)
	if err := p.Configure(q); err != nil {
		t.Fatal(err)
	}
	block := []byte(strings.Join([]string{
		"alpha only",
		"beta only",
		"beta gamma blocked",
		"alpha beta both",
		"nothing here",
	}, "\n"))
	masks, err := p.TagBlock(nil, block)
	if err != nil {
		t.Fatal(err)
	}
	want := []SetMask{0b01, 0b10, 0, 0b11, 0}
	if len(masks) != len(want) {
		t.Fatalf("masks = %v", masks)
	}
	for i := range want {
		if masks[i] != want[i] {
			t.Errorf("line %d: mask %04b, want %04b", i, masks[i], want[i])
		}
	}
}

func TestTagBlockUnconfigured(t *testing.T) {
	p := NewPipeline(PipelineConfig{})
	if _, err := p.TagBlock(nil, []byte("x")); err == nil {
		t.Error("unconfigured TagBlock should error")
	}
}

func TestQuickTagMasksMatchReferencePerSet(t *testing.T) {
	// Property: the per-set mask agrees with query.MatchSet on every line.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, lines := randomQueryAndLines(rng)
		p := NewPipeline(PipelineConfig{})
		if err := p.Configure(q); err != nil {
			return false
		}
		// Canonical framing: every line newline-terminated, so trailing
		// empty lines survive the block split.
		block := []byte(strings.Join(lines, "\n") + "\n")
		masks, err := p.TagBlock(nil, block)
		if err != nil || len(masks) != len(lines) {
			return false
		}
		for i, line := range lines {
			ref := q.MatchSet(line)
			for si, want := range ref {
				if masks[i].Has(si) != want {
					t.Logf("seed %d line %d set %d: hw=%v ref=%v q=%s line=%q",
						seed, i, si, masks[i].Has(si), want, q, line)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
