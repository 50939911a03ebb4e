package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"testing"

	"mithrilog/internal/loggen"
)

// TestRegexGolden pins every simulated figure of a regex scan — the byte
// counts and the index, stream, filter, verify and return times behind
// SimElapsed — over all four dataset profiles, on the prefiltered path and
// on the full-scan fallback. TestScanGolden and the ledger golden print no
// regex time, so a change to the regex timing model shows here first.
// Regenerate with -update-golden, and only for an intended model change.
func TestRegexGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	checkGolden(t, "regex_golden.txt", regexGolden(t))
}

func regexGolden(t *testing.T) []byte {
	var out bytes.Buffer
	for _, p := range loggen.Profiles() {
		ds := loggen.Generate(p, 3000, 0)
		e := NewEngine(Config{})
		if err := e.Ingest(ds.Lines); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		// The simulated index-traversal rows model an index all on flash.
		if err := e.Index().Flush(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(0x5E6E ^ p.Seed))
		vocab := goldenVocabulary(ds.Lines, rng)
		word := func() string { return regexp.QuoteMeta(vocab[rng.Intn(len(vocab))]) }
		patterns := []string{
			" " + word() + " ",
			" " + word() + " ",
			word() + ".*" + word(),
			" " + word() + " .*" + word(),
			`\d\d:\d\d`,
			`(ERROR|FATAL|error)`,
		}
		for pi, pattern := range patterns {
			fmt.Fprintf(&out, "# %s r%d %q\n", p.Name, pi, pattern)
			for _, noPrefilter := range []bool{false, true} {
				res, err := e.SearchRegexOpts(pattern, RegexOptions{NoPrefilter: noPrefilter})
				if err != nil {
					t.Fatalf("%s pattern %q (noprefilter=%t): %v", p.Name, pattern, noPrefilter, err)
				}
				fmt.Fprintf(&out, "%s r%d noprefilter=%-5t matches=%d cand=%d/%d pre=%t verified=%d raw=%d comp=%d ret=%d index=%d stream=%d filter=%d verify=%d return=%d sim=%d\n",
					p.Name, pi, noPrefilter, res.Matches, res.CandidatePages, res.TotalPages, res.Prefiltered,
					res.VerifiedLines, res.ScannedRawBytes, res.ScannedCompBytes, res.ReturnedBytes,
					res.IndexTime.Nanoseconds(), res.StreamTime.Nanoseconds(), res.FilterTime.Nanoseconds(),
					res.VerifyTime.Nanoseconds(), res.ReturnTime.Nanoseconds(), res.SimElapsed.Nanoseconds())
			}
		}
	}
	return out.Bytes()
}
