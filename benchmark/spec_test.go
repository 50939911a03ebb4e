package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json, the copy of the contract the driver
// reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %q / %q, code %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bj.RunSeconds, defaultSeconds)
	}
}

// TestSpecWithinDriverLimits checks the lists against the limits the driver
// refuses a BENCHMARK.json for.
func TestSpecWithinDriverLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
		if w.clients > 2 {
			t.Errorf("%s: %d clients, more than the reference box has cores", w.name, w.clients)
		}
		for _, seconds := range []int{1, defaultSeconds} {
			rc := sizeRun(params{seconds: seconds}, w)
			// The tail percentile is taken over the quieter half's ops.
			if ops := (rc.segments + 1) / 2 * rc.segOps * w.clients; rc.segments < minSegments || !percentileSupported(ops, tail) {
				t.Errorf("%s at --seconds %d: %d segments, %d ops in the quieter half; a timed run needs >= %d segments and %d samples beyond p%.0f",
					w.name, seconds, rc.segments, ops, minSegments, minBeyond, tail*100)
			}
		}
	}
	var setup metricSpec
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the driver's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != lower {
		t.Errorf("setup_s must be in s, lower better: %+v", setup)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > setup.Bound {
			t.Errorf("%s: bound %v above setup_s's %v, which must be the largest", m.Name, m.Bound, setup.Bound)
		}
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}
