// Command mithribench is the repository's benchmark: five long-run
// workloads, seven end-to-end metrics on each, and a traced mode that
// attributes an op's time to the layers it crosses. BENCHMARK.json at the
// repository root names the command the driver runs; README.md in this
// directory defines the metrics and workloads.
//
//	bash benchmark/run.sh --workload scan_cold --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload scan_cold --seed 1 --seconds 12 --trace 1
//	bash benchmark/run.sh --selfcheck
//
// It drives the system only through exported functions of mithrilog and
// its internal packages, and prints as its last line one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var p params
	var trace int
	var selfcheck bool
	flag.StringVar(&p.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&p.seed, "seed", 1, "dataset seed: the same seed gives the same inputs")
	flag.IntVar(&p.seconds, "seconds", defaultSeconds, "length of the timed part on the reference box; sets the op count")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer mode, 0 the end-to-end mode")
	flag.BoolVar(&p.smoke, "smoke", false, "shrink the run to 2,000 lines and 8 ops (tests)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload as two alternating sets and compare them within the bounds")
	flag.Parse()
	p.trace = trace != 0
	p.outDir = defaultOutDir
	// One P: see README.md, "Run shape". With two, a scan's pipelines hand
	// pages between threads, and on a VM each wake-up of an idle vCPU costs a
	// trip through the host whose length the host decides.
	runtime.GOMAXPROCS(1)

	if selfcheck {
		os.Exit(runSelfcheck(p.seconds))
	}
	w := workloadByName(p.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "mithribench: unknown workload %q; have:", p.workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	res, err := execute(p, w, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mithribench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one invocation and prints its report to out, the result
// object last.
func execute(p params, w *workload, out io.Writer) (result, error) {
	rc := newRunCtx(p, w)
	specs, run := endToEnd, w.measure
	if p.trace {
		specs, run = perLayer, w.layers
	}
	o, err := run(rc)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v: %d lines, %d segments x %d ops x %d clients, GOMAXPROCS %d, loggen %.3f s\n",
		w.name, p.seed, p.seconds, p.trace, len(rc.ds.Lines), rc.segments, rc.segOps, w.clients, runtime.GOMAXPROCS(0), rc.genTime.Seconds())
	for _, n := range o.notes {
		fmt.Fprintln(out, n)
	}
	if o.firstErr != nil {
		fmt.Fprintf(out, "first failed op: %v\n", o.firstErr)
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, spec := range specs {
		v, ok := o.metrics[spec.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", spec.Name)
		}
		res.Metrics[spec.Name] = metricValue{Value: v, Unit: spec.Unit}
		fmt.Fprintf(out, "%-44s %14.6g %s\n", spec.Name, v, spec.Unit)
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}
