// Command experiments regenerates every table and figure of the paper's
// evaluation section (§7) on the synthetic datasets, printing the rows
// EXPERIMENTS.md records. The -lines flag scales the datasets; larger
// values take longer but sharpen the end-to-end comparisons.
//
// Usage:
//
//	experiments [-lines 40000] [-pairs 100] [-octets 16] [-singles 40]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"mithrilog/internal/bench"
)

func main() {
	lines := flag.Int("lines", 40000, "lines per dataset (BGL2 uses 1/5)")
	singles := flag.Int("singles", 40, "single-template queries per dataset")
	pairs := flag.Int("pairs", 100, "random 2-query OR combinations (paper: 100)")
	octets := flag.Int("octets", 16, "random 8-query OR combinations (paper: 16)")
	seed := flag.Int64("seed", 1, "batch sampling seed")
	flag.Parse()

	start := time.Now()
	err := run(os.Stdout, bench.Options{
		Lines:   *lines,
		Singles: *singles,
		Pairs:   *pairs,
		Octets:  *octets,
		Seed:    *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("experiment suite completed in %v", time.Since(start).Round(time.Millisecond))
}

// run prints every table, figure, extension and ablation to w, in the
// order EXPERIMENTS.md records them. Progress notes go to the log.
func run(w io.Writer, opts bench.Options) error {
	start := time.Now()
	fmt.Fprintf(w, "MithriLog experiment suite (lines=%d singles=%d pairs=%d octets=%d)\n\n",
		opts.Lines, opts.Singles, opts.Pairs, opts.Octets)

	fmt.Fprintln(w, bench.FormatTable1(bench.Table1(opts)))
	fmt.Fprintln(w, bench.FormatTable2(bench.Table2()))
	fmt.Fprintln(w, bench.FormatTable3(bench.Table3()))
	fmt.Fprintln(w, bench.FormatTable4(bench.Table4()))

	t5, err := bench.Table5(opts)
	if err != nil {
		return fmt.Errorf("table 5: %v", err)
	}
	fmt.Fprintln(w, bench.FormatTable5(t5))

	log.Printf("building workloads (4 datasets, all systems)...")
	ws, err := bench.BuildAll(opts)
	if err != nil {
		return fmt.Errorf("workloads: %v", err)
	}
	log.Printf("workloads ready after %v", time.Since(start).Round(time.Millisecond))

	t6, err := bench.Table6(ws)
	if err != nil {
		return fmt.Errorf("table 6: %v", err)
	}
	fmt.Fprintln(w, bench.FormatTable6(t6))

	t7, err := bench.Table7(ws)
	if err != nil {
		return fmt.Errorf("table 7: %v", err)
	}
	fmt.Fprintln(w, bench.FormatTable7(t7))
	fmt.Fprintln(w, bench.FormatTable8(bench.Table8()))

	fmt.Fprintln(w, bench.FormatFigure13(bench.Figure13(opts)))

	f14, err := bench.Figure14(ws)
	if err != nil {
		return fmt.Errorf("figure 14: %v", err)
	}
	fmt.Fprintln(w, bench.FormatFigure14(f14))

	f15, err := bench.Figure15(ws)
	if err != nil {
		return fmt.Errorf("figure 15: %v", err)
	}
	fmt.Fprintln(w, bench.FormatFigure15(f15))

	f16, err := bench.Figure16(ws)
	if err != nil {
		return fmt.Errorf("figure 16: %v", err)
	}
	fmt.Fprintln(w, bench.FormatFigure16(f16))

	tg, err := bench.ExtensionTagging(ws)
	if err != nil {
		return fmt.Errorf("tagging extension: %v", err)
	}
	rx, err := bench.ExtensionRegex(ws)
	if err != nil {
		return fmt.Errorf("regex extension: %v", err)
	}
	fmt.Fprintln(w, bench.FormatExtensions(tg, rx))

	pv, err := bench.ExtensionParsing(opts)
	if err != nil {
		return fmt.Errorf("parsing extension: %v", err)
	}
	fmt.Fprintln(w, bench.FormatParsing(pv))

	hf, err := bench.AblationHashFilterCount(opts)
	if err != nil {
		return fmt.Errorf("ablation: %v", err)
	}
	ih, err := bench.AblationIndexHashFunctions(opts)
	if err != nil {
		return fmt.Errorf("ablation: %v", err)
	}
	il, err := bench.AblationIndexLayout(opts)
	if err != nil {
		return fmt.Errorf("ablation: %v", err)
	}
	fmt.Fprintln(w, bench.FormatAblations(
		bench.AblationDatapathWidth(opts), hf, ih,
		bench.AblationLZAHNewline(opts), il,
		bench.AblationLZAHTableSize(opts),
		bench.AblationPipelineCount(),
		bench.AblationCuckooCapacity()))
	return nil
}
