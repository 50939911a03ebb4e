// Command mithrilog is a one-shot log analytics CLI over the MithriLog
// engine: it ingests a log file into the simulated near-storage system
// and runs queries or template extraction against it.
//
// Usage:
//
//	mithrilog ingest -o store.mlog file.log           # build a persistent store
//	mithrilog search -q 'failed AND NOT pbs_mom:' [-noindex] [-limit 10] file.log
//	mithrilog search -q 'failed' -store store.mlog     # query a saved store
//	mithrilog grep -e 'ib_sm\.x\[\d+\]' file.log      # regex scan
//	mithrilog templates [-top 20] file.log
//	mithrilog stats file.log
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"mithrilog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mithrilog: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "ingest":
		runIngest(os.Args[2:])
	case "search":
		runSearch(os.Args[2:])
	case "grep":
		runGrep(os.Args[2:])
	case "export":
		runExport(os.Args[2:])
	case "templates":
		runTemplates(os.Args[2:])
	case "stats":
		runStats(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mithrilog ingest -o store.mlog file.log
  mithrilog search -q 'expr' [-noindex] [-limit N] (file.log | -store store.mlog)
  mithrilog grep -e 'pattern' [-limit N] (file.log | -store store.mlog)
  mithrilog export (file.log | -store store.mlog) > all.log
  mithrilog templates [-top N] file.log
  mithrilog stats (file.log | -store store.mlog)`)
	os.Exit(2)
}

func loadStore(path string) *mithrilog.Engine {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	eng, err := mithrilog.Reopen(mithrilog.Config{}, f)
	if err != nil {
		log.Fatal(err)
	}
	return eng
}

// engineFor resolves the -store flag or a log file argument.
func engineFor(store string, fs *flag.FlagSet) *mithrilog.Engine {
	if store != "" {
		if fs.NArg() != 0 {
			usage()
		}
		return loadStore(store)
	}
	if fs.NArg() != 1 {
		usage()
	}
	return ingestFile(fs.Arg(0))
}

func runIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	out := fs.String("o", "store.mlog", "output store file")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	eng := ingestFile(fs.Arg(0))
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.WriteSegments(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("ingested %d lines (%.1f MB raw, %.2fx compressed) into %s\n",
		st.Lines, float64(st.RawBytes)/1e6, st.CompressionRatio, *out)
}

func runGrep(args []string) {
	fs := flag.NewFlagSet("grep", flag.ExitOnError)
	pattern := fs.String("e", "", "regular expression (required)")
	store := fs.String("store", "", "query a saved store instead of a log file")
	limit := fs.Int("limit", 20, "matching lines to print, the smallest in byte order (0 = none)")
	_ = fs.Parse(args)
	if *pattern == "" {
		usage()
	}
	eng := engineFor(*store, fs)
	res, err := eng.SearchRegexOpts(context.Background(), "", *pattern, mithrilog.RegexOptions{
		CollectLines: *limit != 0,
		Limit:        *limit,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range res.Lines {
		fmt.Println(l)
	}
	path := fmt.Sprintf("regex full scan (%d pages)", res.CandidatePages)
	if res.Prefiltered {
		path = fmt.Sprintf("regex prefiltered (%d/%d pages skipped)",
			res.TotalPages-res.CandidatePages, res.TotalPages)
	}
	fmt.Printf("-- %d matches | %s | simulated %v | wall %v\n",
		res.Matches, path, res.SimElapsed, res.WallElapsed)
}

func runExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	store := fs.String("store", "", "export a saved store instead of a log file")
	_ = fs.Parse(args)
	eng := engineFor(*store, fs)
	n, err := eng.Export(os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "exported %d bytes\n", n)
}

func ingestFile(path string) *mithrilog.Engine {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	eng := mithrilog.Open(mithrilog.Config{})
	if err := eng.IngestReader(f); err != nil {
		log.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		log.Fatal(err)
	}
	return eng
}

func runSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	expr := fs.String("q", "", "query expression (required)")
	noIndex := fs.Bool("noindex", false, "bypass the inverted index (full scan)")
	store := fs.String("store", "", "query a saved store instead of a log file")
	limit := fs.Int("limit", 20, "matching lines to print, the smallest in byte order (0 = none)")
	explain := fs.Bool("explain", false, "print the simulated timing breakdown")
	_ = fs.Parse(args)
	if *expr == "" {
		usage()
	}
	eng := engineFor(*store, fs)
	res, err := eng.Search(*expr, mithrilog.SearchOptions{
		CollectLines: *limit != 0,
		Limit:        *limit,
		NoIndex:      *noIndex,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *explain {
		b := res.Breakdown
		fmt.Printf("-- explain: index %v | stream %v | filter %v (slower of stream/filter binds) | return %v\n",
			b.Index, b.Stream, b.Filter, b.Return)
	}
	for _, l := range res.Lines {
		fmt.Println(l)
	}
	path := "accelerator"
	if !res.Offloaded {
		path = "software fallback"
	}
	fmt.Printf("-- %d matches | %s | pages %d/%d | simulated %v (%.2f GB/s effective) | wall %v\n",
		res.Matches, path, res.CandidatePages, res.TotalPages,
		res.SimElapsed, res.EffectiveGBps, res.WallElapsed)
}

func runTemplates(args []string) {
	fs := flag.NewFlagSet("templates", flag.ExitOnError)
	top := fs.Int("top", 20, "templates to print")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	var lines []string
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			lines = append(lines, string(data[start:i]))
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, string(data[start:]))
	}
	lib := mithrilog.ExtractTemplates(lines, mithrilog.TemplateParams{
		MaxChildren: 40, MinSupport: 5, MaxDepth: 12,
	})
	tpls := lib.Templates()
	sort.Slice(tpls, func(i, j int) bool { return tpls[i].Support > tpls[j].Support })
	fmt.Printf("%d templates extracted from %d lines\n", lib.Len(), len(lines))
	for i, tpl := range tpls {
		if i == *top {
			break
		}
		desc, err := lib.Describe(tpl.ID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(desc)
	}
}

func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	store := fs.String("store", "", "inspect a saved store instead of a log file")
	_ = fs.Parse(args)
	eng := engineFor(*store, fs)
	st := eng.Stats()
	fmt.Printf("lines:             %d\n", st.Lines)
	fmt.Printf("raw bytes:         %d (%.1f MB)\n", st.RawBytes, float64(st.RawBytes)/1e6)
	fmt.Printf("compressed bytes:  %d (%.1f MB)\n", st.CompressedBytes, float64(st.CompressedBytes)/1e6)
	fmt.Printf("compression ratio: %.2fx (LZAH)\n", st.CompressionRatio)
	fmt.Printf("data pages:        %d\n", st.DataPages)
	fmt.Printf("index memory:      %.1f KB\n", float64(st.IndexMemoryBytes)/1e3)
}
