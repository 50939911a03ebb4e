package mithrilog

import (
	"context"
	"regexp"
	"testing"

	"mithrilog/internal/loggen"
)

// TestRegexAnchoredAlternation pins a leading `^` to its own alternative
// through the facade: `^NOSUCH|tok` has no usable factor, so every width
// takes the full scan, and it must count every line holding tok anywhere,
// exactly as Go's regexp does — not only lines that begin with it.
func TestRegexAnchoredAlternation(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 1500, 0)
	// A token from the middle of a line, so most of its occurrences are
	// not at a line start.
	toks := lineTokens(ds.Lines[len(ds.Lines)/2])
	pattern := "^NOSUCH|" + rexEscape(toks[len(toks)/2])
	std := regexp.MustCompile(pattern)
	want := 0
	for _, l := range ds.Lines {
		if std.Match(l) {
			want++
		}
	}
	for _, shards := range []int{1, 4} {
		e := Open(Config{Shards: shards})
		if err := e.IngestBytes(ds.Lines); err != nil {
			t.Fatal(err)
		}
		res, err := e.SearchRegexOpts(context.Background(), "", pattern, RegexOptions{})
		if err != nil {
			t.Fatalf("shards=%d %q: %v", shards, pattern, err)
		}
		if res.Prefiltered {
			t.Errorf("shards=%d %q: took the prefiltered path; the test needs the full scan", shards, pattern)
		}
		if res.Matches != want {
			t.Errorf("shards=%d %q: %d matches, Go regexp says %d", shards, pattern, res.Matches, want)
		}
	}
}
