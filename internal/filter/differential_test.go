package filter

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mithrilog/internal/query"
	"mithrilog/internal/tokenizer"
)

// configured returns a default-sized pipeline configured with q, or nil
// when the cuckoo tables cannot hold it.
func configured(q query.Query) *Pipeline {
	p := NewPipeline(PipelineConfig{})
	if p.Configure(q) != nil {
		return nil
	}
	return p
}

// modelToken is one token as the word model saw it.
type modelToken struct {
	text string
	line int
	col  uint16
}

// wordModel runs block through the hardware model on ref, a configured
// pipeline nothing else has touched: every line goes through the array's
// TokenizeLine into padded words and then, word by word, through FeedTagged
// on the line's hash filter. It shares no loop with Pipeline.walk — lines
// are split byte by byte, tokens are reassembled from the words — and
// leaves in ref.Stats() the ledger the hardware would have kept.
func wordModel(t testing.TB, ref *Pipeline, block []byte) (masks []SetMask, kept []string, toks []modelToken) {
	t.Helper()
	var lines [][]byte
	start := 0
	for i, c := range block {
		if c == '\n' {
			lines = append(lines, block[start:i])
			start = i + 1
		}
	}
	if start < len(block) {
		lines = append(lines, block[start:])
	}
	var words []tokenizer.Word
	for i, line := range lines {
		words = ref.array.TokenizeLine(words[:0], line)
		f := ref.filters[i%len(ref.filters)]
		var tok []byte
		for wi, w := range words {
			tok = append(tok, w.Bytes()...)
			if w.LastOfToken {
				if len(tok) > 0 {
					toks = append(toks, modelToken{string(tok), i, w.Column})
				}
				tok = tok[:0]
			}
			done, mask := f.FeedTagged(w)
			if done != (wi == len(words)-1) {
				t.Fatalf("word model: line %d ended at word %d of %d", i, wi+1, len(words))
			}
			if done {
				masks = append(masks, mask)
				if mask != 0 {
					kept = append(kept, string(line))
				}
			}
		}
		ref.rawBytes += uint64(len(line))
		ref.lines++
		if masks[i] != 0 {
			ref.kept++
		}
	}
	return masks, kept, toks
}

func asStrings(lines [][]byte) []string {
	var out []string
	for _, l := range lines {
		out = append(out, string(l))
	}
	return out
}

// checkSpanVsWord is the differential the span representation is pinned
// by: over block and q, the in-place walker (TagBlock/FilterBlock), the
// recorded spans (Tokenize) and their evaluation (FilterTokenized) agree
// with the word model on every line's mask, on the kept lines, on every
// token's bytes, line and column, and on every field of PipelineStats.
func checkSpanVsWord(t testing.TB, block []byte, q query.Query) {
	t.Helper()
	ref := configured(q)
	if ref == nil {
		return // not offloadable: no pipeline ever sees it
	}
	wantMasks, wantKept, wantToks := wordModel(t, ref, block)
	want := ref.Stats()

	fused := configured(q)
	gotMasks, err := fused.TagBlock(nil, block)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMasks, wantMasks) {
		t.Fatalf("masks diverge on %q (query %s):\n walk %04b\nwords %04b", block, q, gotMasks, wantMasks)
	}
	if got := asStrings(fused.keptLines); !reflect.DeepEqual(got, wantKept) {
		t.Fatalf("kept lines diverge on %q (query %s):\n walk %q\nwords %q", block, q, got, wantKept)
	}
	if got := fused.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fused stats diverge on %q (query %s):\n walk %+v\nwords %+v", block, q, got, want)
	}

	split := configured(q)
	tb := split.Tokenize(block)
	if got := split.Stats(); got.Tokenizer != want.Tokenizer || got.Lines != 0 || got.FilterWords[0] != 0 {
		t.Fatalf("Tokenize booked %+v, want the tokenizer's %+v and no filter work", got, want.Tokenizer)
	}
	if tb.Lines() != len(wantMasks) || len(tb.Words) != len(wantToks) {
		t.Fatalf("Tokenize found %d lines, %d tokens on %q; word model %d, %d",
			tb.Lines(), len(tb.Words), block, len(wantMasks), len(wantToks))
	}
	line, first := 0, uint32(0)
	for i, s := range tb.Words {
		for uint32(i) >= tb.lines[line].tokEnd {
			line++
			first = uint32(i)
		}
		got := modelToken{string(tb.Block[s.Off : s.Off+s.Len]), line, uint16(uint32(i) - first)}
		if got != wantToks[i] {
			t.Fatalf("token %d of %q: span %+v, word model %+v", i, block, got, wantToks[i])
		}
	}
	kept, err := split.FilterTokenized(tb)
	if err != nil {
		t.Fatal(err)
	}
	if got := asStrings(kept); !reflect.DeepEqual(got, wantKept) {
		t.Fatalf("FilterTokenized kept %q, word model %q (block %q, query %s)", got, wantKept, block, q)
	}
	if got := split.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize+FilterTokenized stats diverge on %q (query %s):\nspans %+v\nwords %+v", block, q, got, want)
	}

	// A cache hit: the spans evaluated on a pipeline that never tokenized.
	warm := configured(q)
	if _, err := warm.FilterTokenized(tb); err != nil {
		t.Fatal(err)
	}
	got := warm.Stats()
	if !reflect.DeepEqual(got.FilterWords, want.FilterWords) || got.Lines != want.Lines ||
		got.Kept != want.Kept || got.RawBytes != want.RawBytes || got.Tokenizer != (tokenizer.Stats{}) {
		t.Fatalf("warm stats diverge on %q (query %s):\nspans %+v\nwords %+v", block, q, got, want)
	}
}

// diffQueries covers the evaluator's branches: unions, negation beside
// and without positive terms, a multi-word token, column constraints.
var diffQueries = []string{
	`(error) OR (warn AND NOT info)`,
	`(kernel: AND panic) OR (oom) OR (disk AND full AND NOT retry)`,
	`(a-token-longer-than-one-datapath-word) OR (x)`,
	`(error:0) OR (warn:1)`,
	`NOT error`,
	`(NOT x AND NOT disk) OR (panic)`,
}

// diffLines is a corpus stressing every branch of the line path: empty
// lines, pure delimiters, multi-word (>16 byte) tokens, negated terms,
// and column-sensitive orderings.
func diffLines(rng *rand.Rand, n int) [][]byte {
	vocab := []string{
		"error", "warn", "info", "kernel:", "panic", "oom",
		"a-token-longer-than-one-datapath-word", "10.0.0.1",
		"disk", "full", "retry", "x",
	}
	lines := make([][]byte, n)
	for i := range lines {
		switch rng.Intn(10) {
		case 0:
			lines[i] = []byte{}
		case 1:
			lines[i] = []byte("   \t  ")
		default:
			words := rng.Intn(8) + 1
			var b []byte
			for w := 0; w < words; w++ {
				if w > 0 {
					b = append(b, ' ')
				}
				b = append(b, vocab[rng.Intn(len(vocab))]...)
			}
			lines[i] = b
		}
	}
	return lines
}

// TestSpanPathMatchesWordModel runs the differential over a seeded corpus
// with and without a final newline, and over every prefix of a block that
// packs the walker's edge cases into a few chunks (so each of them meets
// each position of the eight-byte window and the short last chunk).
func TestSpanPathMatchesWordModel(t *testing.T) {
	edges := []byte("x  \t!\n\n \xa0\x8a\x89 x\t\nsixteen-bytes-tok seventeen-bytes-tk x\n" +
		strings.Repeat("y", 32) + " " + strings.Repeat("z", 33) + "\nerror x")
	for _, qs := range diffQueries {
		q := query.MustParse(qs)
		rng := rand.New(rand.NewSource(99))
		block := bytes.Join(diffLines(rng, 500), []byte("\n"))
		checkSpanVsWord(t, block, q)
		checkSpanVsWord(t, append(block, '\n'), q)
		for n := 0; n <= len(edges); n++ {
			checkSpanVsWord(t, edges[:n], q)
		}
	}
}

// TestScanPathZeroAllocs pins the allocation discipline of both page
// evaluators: once the pipeline's buffers have grown, a page — fused
// (cold) or from its spans (warm) — allocates nothing, the slice of kept
// lines included.
func TestScanPathZeroAllocs(t *testing.T) {
	p := configured(query.MustParse(`(error) OR (warn AND NOT info)`))
	block := bytes.Join(diffLines(rand.New(rand.NewSource(7)), 200), []byte("\n"))
	tb := p.Tokenize(block)
	for name, page := range map[string]func() ([][]byte, error){
		"FilterBlock":     func() ([][]byte, error) { return p.FilterBlock(block) },
		"FilterTokenized": func() ([][]byte, error) { return p.FilterTokenized(tb) },
	} {
		kept, err := page() // grow the buffers
		if err != nil || len(kept) == 0 {
			t.Fatalf("%s kept %d lines, err %v", name, len(kept), err)
		}
		if allocs := testing.AllocsPerRun(50, func() { _, _ = page() }); allocs != 0 {
			t.Errorf("%s allocates %.1f times per page, want 0", name, allocs)
		}
	}
}
