package main

import (
	"bytes"
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mithrilog/internal/bench"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/ledger_golden.txt")

// TestLedgerGolden runs the whole experiment suite at a small scale and
// compares its output byte for byte with the committed ledger. Every
// simulated or modelled row is a pure function of the synthetic data, so
// any change to a cycle count, a model constant or a dataset shows up
// here. The rows the MonetDB-like and Splunk-like baselines time on the
// host are masked by maskWallClock, since they jitter from run to run.
func TestLedgerGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite; skipped with -short")
	}
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	var out bytes.Buffer
	err := run(&out, bench.Options{Lines: 8000, Singles: 10, Pairs: 10, Octets: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := maskWallClock(out.String())

	path := filepath.Join("testdata", "ledger_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotRows, wantRows := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotRows) && i < len(wantRows); i++ {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("ledger diverges at row %d:\n got: %s\nwant: %s", i+1, gotRows[i], wantRows[i])
		}
	}
	t.Fatalf("ledger has %d rows, want %d", len(gotRows), len(wantRows))
}

var (
	decimalRE    = regexp.MustCompile(`\s+\d+\.\d+x?`)
	splunkTimeRE = regexp.MustCompile(`splunk avg/max \S+`)
)

// maskWallClock replaces the host-timed fields with "*":
//   - Table 6: the MonetDB-like rows and "Avg. improve.";
//   - Table 7: the Improvement and Splunk total columns;
//   - Figure 15: the MonetDB-like histograms (their bucket lines go);
//   - Figure 16: the Splunk avg/max column.
func maskWallClock(out string) string {
	var kept []string
	section := ""
	monetHistogram := false
	for _, l := range strings.Split(out, "\n") {
		if l == "" {
			section = ""
		} else if i := strings.IndexByte(l, ':'); i > 0 && !strings.HasPrefix(l, " ") && section == "" {
			section = l[:i]
		}
		switch section {
		case "Table 6":
			if strings.HasPrefix(l, "MonetDB-like") || strings.HasPrefix(l, "Avg. improve.") {
				l = decimalRE.ReplaceAllString(l, " *")
			}
		case "Table 7":
			if f := strings.Fields(l); len(f) == 4 && !strings.HasPrefix(l, "Dataset") {
				l = f[0] + " * * " + f[3]
			}
		case "Figure 15":
			if strings.Contains(l, " / ") {
				monetHistogram = strings.HasSuffix(l, "/ MonetDB-like")
			} else if monetHistogram && strings.HasPrefix(l, "  [") {
				continue
			}
		case "Figure 16":
			l = splunkTimeRE.ReplaceAllString(l, "splunk avg/max *")
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}
