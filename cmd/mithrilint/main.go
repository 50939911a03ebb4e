// Command mithrilint runs MithriLog's project-invariant analyzer suite
// (internal/lint) over the module:
//
//	go run ./cmd/mithrilint ./...          # whole module (CI does this)
//	go run ./cmd/mithrilint -only lockorder ./internal/storage/...
//	go run ./cmd/mithrilint -json ./...    # machine-readable findings
//	go run ./cmd/mithrilint -strict-ignores ./...  # also flag stale ignores (CI)
//	go run ./cmd/mithrilint -hotpaths ./...        # list hotpath-marked functions
//	go run ./cmd/mithrilint -timing -budget 30s ./...   # per-analyzer wall clock, hard cap
//	go run ./cmd/mithrilint -list
//
// -budget makes the run fail with exit 2 if analysis exceeds the given
// wall-clock duration — CI's guard against the suite outgrowing its
// per-PR latency allowance; -timing prints where the time went.
//
// Plain output is one finding per line in the usual file:line:col form;
// -json emits a JSON array of finding objects on stdout instead. Exit
// status: 0 when the tree is clean, 1 when findings were reported, 2 on a
// load or internal error (bad flags, unknown analyzer, type errors in the
// tree). The suite is self-contained (stdlib only), so the driver needs
// no tool installation — it cannot be plugged into `go vet -vettool`
// (that protocol needs the unitchecker wiring from golang.org/x/tools, a
// dependency this repository does not carry), which is why CI runs the
// command directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mithrilog/internal/lint"
)

// Exit codes, also documented in LINT.md and relied on by CI.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	dir := flag.String("C", ".", "module directory to analyze")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	strictIgnores := flag.Bool("strict-ignores", false,
		"also report mithrilint:ignore directives that suppress no findings (CI uses this)")
	hotpaths := flag.Bool("hotpaths", false,
		"print the //mithrilint:hotpath-marked functions, one per line, and exit")
	timing := flag.Bool("timing", false, "print per-analyzer wall-clock timings to stderr")
	budget := flag.Duration("budget", 0,
		"fail (exit 2) if analysis wall clock exceeds this duration (0 = no limit)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mithrilint [-list] [-only a,b] [-json] [-strict-ignores] [-hotpaths] [-timing] [-budget d] [-C dir] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "mithrilint: unknown analyzer %q (try -list)\n", name)
				os.Exit(exitError)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	loader := lint.NewLoader(*dir)
	pkgs, prog, err := loader.LoadModule(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mithrilint: %v\n", err)
		os.Exit(exitError)
	}

	if *hotpaths {
		// The machine-readable hot-path inventory: CI diffs this against
		// the list committed in PERFORMANCE.md so code and doc can't drift.
		for _, fn := range lint.HotpathFunctions(prog) {
			fmt.Println(fn)
		}
		return
	}

	start := time.Now()
	diags, timings := lint.RunTimed(prog, pkgs, analyzers, lint.RunOptions{StrictIgnores: *strictIgnores})
	elapsed := time.Since(start)
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "mithrilint: %-14s %8.1fms\n", tm.Name, float64(tm.Elapsed.Microseconds())/1000)
		}
		fmt.Fprintf(os.Stderr, "mithrilint: %-14s %8.1fms\n", "total", float64(elapsed.Microseconds())/1000)
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				Analyzer: d.Analyzer.Name,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "mithrilint: encoding findings: %v\n", err)
			os.Exit(exitError)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mithrilint: %d finding(s)\n", len(diags))
		os.Exit(exitFindings)
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "mithrilint: analysis took %v, over the %v budget\n",
			elapsed.Round(time.Millisecond), *budget)
		os.Exit(exitError)
	}
}
