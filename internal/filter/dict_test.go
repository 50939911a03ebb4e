package filter

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mithrilog/internal/query"
)

// checkDict asserts the dictionary's shape on a tokenized block: every id
// names an entry, and every entry is some token's id. (checkSpanVsWord
// checks that each occurrence holds its entry's bytes.)
func checkDict(t *testing.T, tb *TokenizedBlock) {
	t.Helper()
	used := make([]bool, len(tb.dict))
	for i, id := range tb.Words {
		if int(id) >= len(tb.dict) {
			t.Fatalf("token %d has id %d of %d entries", i, id, len(tb.dict))
		}
		used[id] = true
	}
	for id, u := range used {
		if !u {
			t.Fatalf("dictionary entry %d is never used", id)
		}
	}
}

// distinctTokens counts the distinct tokens of block: maximal runs of
// bytes other than space, tab and newline.
func distinctTokens(block []byte) int {
	seen := map[string]bool{}
	start := 0
	for i := 0; i <= len(block); i++ {
		if i == len(block) || block[i] == ' ' || block[i] == '\t' || block[i] == '\n' {
			if i > start {
				seen[string(block[start:i])] = true
			}
			start = i + 1
		}
	}
	return len(seen)
}

// TestDictionaryCodedPages runs blocks whose tokens repeat on one page,
// across lines and across columns, under column-constrained (template),
// negated and multi-set queries. checkSpanVsWord pins FilterTokenized's
// masks, kept lines and stats to FilterBlock's and the word model's, and
// every token's bytes to its id's dictionary entry.
func TestDictionaryCodedPages(t *testing.T) {
	long := strings.Repeat("L", 40) // verified by bytes, not keyed by them
	blocks := map[string]string{
		"same column":  "error disk full\nerror disk full\nerror disk full\n",
		"moved column": "error warn x\nwarn error x\nx warn error\nx x x error\n",
		"in one line":  "error error error warn warn\nwarn error warn error\n",
		"key widths": "abcdefgh abcdefghi abcdefghij abcdefghijklmnop abcdefghijklmnopq\n" +
			"abcdefghijklmnopq abcdefghijklmnop abcdefghij abcdefghi abcdefgh\n" +
			"abcdefgX abcdefghX abcdefghijklmnoX abcdefghijklmnopX\n",
		"long tokens":   long + " x " + long + "\n" + long + "M " + long + "\n" + long,
		"at the end":    "x error warn\nwarn x error\nerror",
		"no newline":    "error",
		"blank lines":   "\n\nerror error\n\n   \t\nerror\n",
		"prefix tokens": "err error errors e error err\nerrors err e\n",
	}
	queries := []string{
		`(error:0 AND warn:1) OR (x:2)`, // template columns
		`(error:0) OR (warn:1 AND NOT x)`,
		`NOT error`,
		`(error AND NOT warn) OR (NOT x AND NOT disk)`,
		`(error) OR (warn AND full) OR (disk AND NOT retry) OR (x:0)`, // multi-set
		`(` + long + `:0) OR (abcdefghijklmnop AND abcdefghi)`,
		`(err:0 AND errors) OR (e:2)`,
	}
	for name, text := range blocks {
		block := []byte(text)
		tb := NewPipeline(PipelineConfig{}).Tokenize(block)
		checkDict(t, tb)
		if d, n := len(tb.dict), distinctTokens(block); d != n {
			t.Errorf("%s: %d dictionary entries for %d distinct tokens", name, d, n)
		}
		for _, qs := range queries {
			t.Run(name+"/"+qs, func(t *testing.T) {
				checkSpanVsWord(t, block, query.MustParse(qs))
			})
		}
	}
}

// TestDictionaryIsLossy fills the intern table past its size with tokens
// that each repeat after many others, so repeats find their slots taken
// and get second ids. Evaluation must not notice: same id, same bytes.
func TestDictionaryIsLossy(t *testing.T) {
	var b bytes.Buffer
	for round := 0; round < 3; round++ {
		for i := 0; i < 3<<(internBits-1); i++ {
			fmt.Fprintf(&b, "t%d x%d", i, i%7)
			if i%5 == 4 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
	}
	b.WriteString("error t1:0 t2\n")
	block := b.Bytes()
	tb := NewPipeline(PipelineConfig{}).Tokenize(block)
	checkDict(t, tb)
	if len(tb.dict) <= distinctTokens(block) {
		t.Fatalf("%d entries for %d distinct tokens: no repeat missed its slot", len(tb.dict), distinctTokens(block))
	}
	for _, qs := range []string{`(t1:0 AND x1) OR (error)`, `NOT x3`, `(t7 AND NOT x0) OR (t3000)`} {
		checkSpanVsWord(t, block, query.MustParse(qs))
	}
}

// TestTokenizeIDBound tests both sides of Tokenize's precondition. Just
// under 128 KiB, a block packed with as many distinct tokens as fit (all
// 253 one-byte tokens, then two-byte ones) codes every token exactly; at
// 128 KiB Tokenize refuses the block.
func TestTokenizeIDBound(t *testing.T) {
	var tokens []byte // the 253 bytes that are not delimiters
	for c := 0; c < 256; c++ {
		if c != ' ' && c != '\t' && c != '\n' {
			tokens = append(tokens, byte(c))
		}
	}
	block := make([]byte, 0, maxTokenizeBytes)
	for _, c := range tokens {
		block = append(block, c, ' ')
	}
	for _, c := range tokens {
		for _, d := range tokens {
			if len(block)+3 > maxTokenizeBytes-1 {
				break
			}
			block = append(block, c, d, "\n "[len(block)%64/63])
		}
	}
	for len(block) < maxTokenizeBytes-1 {
		block = append(block, ' ')
	}
	tb := NewPipeline(PipelineConfig{}).Tokenize(block)
	checkDict(t, tb)
	if len(tb.dict) != distinctTokens(block) || len(tb.dict) < 40000 {
		t.Fatalf("%d entries for %d distinct tokens", len(tb.dict), distinctTokens(block))
	}
	checkSpanVsWord(t, block, query.MustParse(`(ab AND NOT cd) OR (x:0) OR (zz)`))

	defer func() {
		if recover() == nil {
			t.Fatal("Tokenize took a 128 KiB block")
		}
	}()
	NewPipeline(PipelineConfig{}).Tokenize(append(block, 'x'))
}

// TestLiberty2PageDictionary pins the premise of the coding on a real
// page: far fewer dictionary entries than tokens, and a cached page of
// under 1.6 bytes per raw byte.
func TestLiberty2PageDictionary(t *testing.T) {
	page := bytes.Clone(liberty2Page(t))
	tb := NewPipeline(PipelineConfig{}).Tokenize(page)
	checkDict(t, tb)
	if 4*len(tb.dict) > len(tb.Words) {
		t.Errorf("%d dictionary entries for %d tokens", len(tb.dict), len(tb.Words))
	}
	if r := float64(tb.MemSize()) / float64(len(page)); r > 1.6 {
		t.Errorf("cached page costs %.2f bytes per raw byte", r)
	}
	checkSpanVsWord(t, page, query.MustParse(benchQuery))
}
