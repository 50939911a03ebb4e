package filter

import (
	"strings"
	"testing"

	"mithrilog/internal/query"
)

// FuzzConfigure asserts the accelerator configuration path is total:
// any parseable query either compiles into the cuckoo tables or is
// rejected with an error — never a panic — and a successfully configured
// pipeline's verdicts agree with the reference software evaluation
// (query.Match) on a block of sample lines derived from the query's own
// tokens plus fixed log lines. This is the §4.2.1 offload/fallback
// boundary: whatever Configure accepts must be bit-faithful.
func FuzzConfigure(f *testing.F) {
	f.Add(`parity AND error`)
	f.Add(`(RAS AND KERNEL AND NOT FATAL) OR (ciod: AND error)`)
	f.Add(`NOT kernel`)
	f.Add(`"instruction cache"@2 OR parity`)
	f.Add(`a b c d e f g h i j k l m n o p q r s t u v w x y z`)
	f.Add(`a OR b OR c OR d OR e OR f OR g OR h OR i OR j`)
	f.Fuzz(func(t *testing.T, expr string) {
		q, err := query.Parse(expr)
		if err != nil {
			return
		}
		p := NewPipeline(PipelineConfig{})
		if err := p.Configure(q); err != nil {
			// Rejected queries fall back to software; nothing to check.
			return
		}
		lines := sampleLines(q)
		got, err := p.FilterLines(lines)
		if err != nil {
			t.Fatalf("configured pipeline failed to filter: %v (query %s)", err, q)
		}
		matched := make(map[int]bool, len(got))
		for _, i := range got {
			matched[i] = true
		}
		for i, line := range lines {
			want := q.Match(string(line))
			if matched[i] != want {
				t.Fatalf("verdict diverges on line %d %q: filter %v, software %v (query %s)",
					i, line, matched[i], want, q)
			}
		}
	})
}

// sampleLines builds a probe block for a query: lines assembled from the
// query's own tokens (full set, per-intersection subsets, each token
// alone) so positive, negative, and partial-match verdicts all occur,
// plus fixed log-shaped lines no random query is likely to match.
func sampleLines(q query.Query) [][]byte {
	var lines [][]byte
	add := func(s string) { lines = append(lines, []byte(s)) }
	toks := q.Tokens()
	add(strings.Join(toks, " "))
	for _, tok := range toks {
		add(tok)
		add("padding " + tok + " padding")
	}
	for _, set := range q.Sets {
		var pos []string
		for _, term := range set.Terms {
			if !term.Negated {
				pos = append(pos, term.Token)
			}
		}
		add(strings.Join(pos, " "))
	}
	add("RAS KERNEL INFO instruction cache parity error corrected")
	add("Jan 9 12:01:03 tbird-admin1 kernel: lustre recovery complete")
	add("")
	return lines
}

// FuzzSpanVsWord is the differential between the two representations of
// a tokenized page: for arbitrary block bytes and any query Configure
// accepts, the in-place walker, the recorded spans and their evaluation
// agree with the padded-word hardware model (tokenizer.TokenizeLine into
// HashFilter.FeedTagged) on kept lines, per-line set masks, token
// boundaries and columns, and every PipelineStats field — the word and
// cycle counts the walker never materialises included. See
// checkSpanVsWord.
func FuzzSpanVsWord(f *testing.F) {
	for _, block := range []string{
		"",
		"a",
		"\n",
		"\n\n\n",
		" !",
		"a\t\nb",
		"RAS KERNEL INFO instruction cache parity error corrected\n",
		"no trailing newline RAS",
		"sixteen-bytes-tok seventeen-bytes-tk\nthirty-two-bytes-of-one-token-xx thirty-three-bytes-of-one-token-xx\n",
		"x\x00y \xff\xfe \xa0\x8a\x89 RAS\tbytes\n",
		"0123456 RAS\n0123456789abcde\n0123456789abcdef\n0123456789abcdefg", // block lengths around the chunk size
	} {
		for _, expr := range []string{
			`parity AND error`,
			`(RAS AND KERNEL AND NOT FATAL) OR (ciod: AND error)`,
			`NOT kernel`,
			`NOT RAS AND NOT a`,
			`"instruction cache"@2 OR parity`,
			`RAS@0 OR a@0`,
			`sixteen-bytes-tok OR seventeen-bytes-tk OR thirty-three-bytes-of-one-token-xx`,
		} {
			f.Add([]byte(block), expr)
		}
	}
	f.Fuzz(func(t *testing.T, block []byte, expr string) {
		q, err := query.Parse(expr)
		if err != nil {
			return
		}
		checkSpanVsWord(t, block, q)
	})
}
