package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeEveryWorkload runs each workload end to end at 2,000 lines and
// 8 ops per client, in both modes: every op must pass the correctness gate
// and every metric of the mode must be reported.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // workloads share nothing; side by side they fit the package's 3 s
			dir := t.TempDir()
			for _, trace := range []bool{false, true} {
				p := params{workload: w.name, seed: 1, seconds: defaultSeconds, trace: trace, smoke: true, outDir: dir}
				res, err := execute(p, w, io.Discard)
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 8 {
					t.Errorf("trace %v: correct %v, attempted %d, failed %d", trace, res.Correct, res.Attempted, res.Failed)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("trace %v: %d metrics reported, the mode has %d", trace, len(res.Metrics), len(specs))
				}
				for _, spec := range specs {
					mv, ok := res.Metrics[spec.Name]
					if !ok || mv.Unit != spec.Unit {
						t.Errorf("trace %v: metric %s missing or in %q, want %q", trace, spec.Name, mv.Unit, spec.Unit)
					}
					if !trace && mv.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; the driver needs it above zero", spec.Name, mv.Value)
					}
				}
			}
			checkTraceFile(t, filepath.Join(dir, "trace_"+w.name+".json"))
		})
	}
}

// checkTraceFile verifies the span file of a traced run: ids are dense,
// every parent exists and is another layer's span of the same op, and no
// span ends before it starts.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("no spans")
	}
	layers := map[string]bool{}
	for i, s := range tf.Spans {
		layers[s.Name] = true
		if s.ID != i+1 {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent > len(tf.Spans) || s.Parent == s.ID {
			t.Errorf("span %d (%s) names span %d as parent", s.ID, s.Name, s.Parent)
			continue
		}
		if parent := tf.Spans[s.Parent-1]; parent.Op != s.Op || parent.Name == s.Name {
			t.Errorf("span %d (%s, op %d) has parent %d (%s, op %d)", s.ID, s.Name, s.Op, parent.ID, parent.Name, parent.Op)
		}
	}
	for _, want := range []string{"op", "facade", "core"} {
		if !layers[want] {
			t.Errorf("no %q span in %s", want, path)
		}
	}
}

func TestSelfTimeAndPerOp(t *testing.T) {
	tr := newTracer()
	at := func(ms int64) (s, e int64) { return 0, ms * 1e6 }
	add := func(name string, op int, ms int64) {
		s, e := at(ms)
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Name: name, Op: op, StartNs: s, EndNs: e})
	}
	// Op 0 three times (quickest 10 ms), op 1 once (20 ms): mean 15; one
	// disturbed 50 ms call must not count.
	for _, d := range []int64{12, 10, 50} {
		add("facade", 0, d)
	}
	add("facade", 1, 20)
	add("core", 0, 8)
	add("core", 1, 18)
	if got := ms(tr.perOp("facade")); got != 15 {
		t.Errorf("perOp(facade) = %v ms, want 15", got)
	}
	if got := ms(selfTime(tr.perOp("facade"), tr.perOp("core"))); got != 2 {
		t.Errorf("facade self time = %v ms, want 15 - 13 = 2", got)
	}
	if got := selfTime(5, 7); got != 0 {
		t.Errorf("selfTime floors at zero, got %v", got)
	}
	if got := ms(span{StartNs: 0, EndNs: 9e6, BusyNs: 4e6}.duration()); got != 4 {
		t.Errorf("a busy span lasts its busy time, got %v ms", got)
	}
}
