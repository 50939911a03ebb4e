package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// setStats summarises one set of runs of one metric.
type setStats struct {
	median, q1, q3 float64
}

func summarise(vals []float64) setStats {
	q1, q3 := quartiles(vals)
	return setStats{median: median(vals), q1: q1, q3: q3}
}

// selfcheckRuns is the runs per set and workload: the ten runs of the
// driver's own spread measure and the ten alternating pairs a claim needs.
const selfcheckRuns = 10

// compareSets judges two sets of runs of the same code on one metric. Which
// set is called A is arbitrary, so the verdict is symmetric: neither median
// may be worse than the other by more than the bound. gap is B against A in
// the metric's own direction, for the report.
func compareSets(spec metricSpec, a, b []float64) (sa, sb setStats, gap float64, ok bool) {
	sa, sb = summarise(a), summarise(b)
	gap = spec.worsening(sa.median, sb.median)
	return sa, sb, gap, !spec.regressed(sa.median, sb.median) && !spec.regressed(sb.median, sa.median)
}

// tooNoisy reports whether a set's spread is beyond the metric's bound, which
// is what the driver refuses a benchmark for; it exempts setup_s. The
// self-check marks such a set and does not fail on it: the spread of ten runs
// in a row follows what the box's neighbours did in those minutes, while the
// medians of two alternating sets stay comparable.
func tooNoisy(spec metricSpec, vals []float64) bool {
	return spec.Name != "setup_s" && spread(vals) > spec.Bound
}

func joinValues(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}

// runOnce executes this binary on one workload and returns its metrics.
func runOnce(exe, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// runSelfcheck runs every workload as two sets of the same binary: pair i
// runs seed 1+i once for each set, the sets taking turns to go first, so A
// and B measure the same ten datasets. It prints both sets per metric and
// workload as markdown, marks every set whose spread is beyond the metric's
// bound, and returns 1 if the medians of any pair of sets differ, in either
// direction, by more than the bound. Its output for the commit that defined
// the benchmark is in REFERENCE.md.
func runSelfcheck(seconds int) int {
	const runs = selfcheckRuns
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mithribench: %v\n", err)
		return 1
	}
	fmt.Printf("# Benchmark self-check: two sets of runs of the same binary\n\n")
	fmt.Printf("%d runs per set and workload on seeds 1..%d, both sets on the same seeds, A first in odd pairs and B first in even ones; `--seconds %d`; nproc %d, GOMAXPROCS %d, %s %s/%s.\n\n",
		runs, runs, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("gap = how much worse B's median is than A's, in the metric's own direction (negative = better); the sets are the same code, so a gap beyond the bound fails in either direction. spread = (q3-q1)/median of the set, quartiles as Python's statistics.quantiles(n=4); a spread beyond the bound is marked (the driver refuses a benchmark for one, except on setup_s) and does not fail the check.\n\n")
	failed, noisy := 0, 0
	for _, w := range workloads {
		rc := sizeRun(params{seconds: seconds}, w)
		fmt.Printf("## %s\n\n%d lines, %d segments x %d ops x %d clients = %d timed ops per run.\n\n", w.name, w.lines, rc.segments, rc.segOps, w.clients, rc.segments*rc.segOps*w.clients)
		a, b := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < runs; i++ {
			order := []map[string][]float64{a, b}
			if i%2 == 1 {
				order = []map[string][]float64{b, a}
			}
			for _, into := range order {
				res, err := runOnce(exe, w.name, int64(1+i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mithribench: selfcheck: %v\n", err)
					return 1
				}
				for name, mv := range res.Metrics {
					into[name] = append(into[name], mv.Value)
				}
			}
		}
		fmt.Printf("| metric | unit | A median (q1..q3) | A spread | B median (q1..q3) | B spread | gap | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
		for _, spec := range endToEnd {
			sa, sb, gap, ok := compareSets(spec, a[spec.Name], b[spec.Name])
			verdict := "ok"
			if !ok {
				verdict = "**GAP EXCEEDS BOUND**"
				failed++
			}
			if tooNoisy(spec, a[spec.Name]) || tooNoisy(spec, b[spec.Name]) {
				verdict += ", **SPREAD EXCEEDS BOUND**"
				noisy++
			}
			fmt.Printf("| %s | %s | %.5g (%.5g..%.5g) | %.2f%% | %.5g (%.5g..%.5g) | %.2f%% | %+.2f%% | %.1f%% | %s |\n",
				spec.Name, spec.Unit, sa.median, sa.q1, sa.q3, 100*spread(a[spec.Name]),
				sb.median, sb.q1, sb.q3, 100*spread(b[spec.Name]), 100*gap, 100*spec.Bound, verdict)
		}
		fmt.Printf("\nEvery run, by seed:\n\n")
		for _, spec := range endToEnd {
			fmt.Printf("- %s: A %s; B %s\n", spec.Name, joinValues(a[spec.Name]), joinValues(b[spec.Name]))
		}
		fmt.Println()
	}
	fmt.Printf("%d of %d metric x workload pairs have a spread beyond their bound.\n", noisy, len(workloads)*len(endToEnd))
	if failed > 0 {
		fmt.Printf("%d gaps exceed their bound.\n", failed)
		return 1
	}
	fmt.Printf("Every gap is within its bound.\n")
	return 0
}
