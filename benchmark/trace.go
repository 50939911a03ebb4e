package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the program under test is not instrumented for this). Spans of one
// op share Op. Parent is the id of the span one entry point further out for
// the same op: the harness re-issues the op at each successive entry point,
// so a parent and its child are separate calls of the same work, and a
// layer's self time is its span minus its child's. Leaf replay spans cover
// many interleaved per-page calls; Busy is the sum of those calls and
// [Start, End] only brackets the first and the last.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // 0 = none
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"` // since the tracer started
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
	Calls   int    `json:"calls,omitempty"`
}

func (s span) duration() time.Duration {
	if s.BusyNs > 0 {
		return time.Duration(s.BusyNs)
	}
	return time.Duration(s.EndNs - s.StartNs)
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run shares the traced run's code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	return t.recordBusy(name, parent, op, start, end, 0, 0)
}

func (t *tracer) recordBusy(name string, parent, op int, start, end time.Time, busy time.Duration, calls int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Op: op,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		BusyNs: busy.Nanoseconds(), Calls: calls,
	})
	return id
}

// layerReps is how often an op is timed at each entry point; the op counts
// by its quickest span, since everything that disturbs a call adds time.
const layerReps = 4

// entry is one entry point of an op: a layer's name and the call into it.
type entry struct {
	name string
	call func() error
}

// descend times one op at each of its entry points, given outermost first.
// After one untimed pass it makes layerReps timed passes, starting each at
// a different level, so that a drift of the machine and whatever a call
// leaves in the CPU caches fall on every level alike. Within a pass each
// span's parent is the span one level further out. It returns the id of the
// innermost level's last span, for leaf spans to hang under.
func (t *tracer) descend(op int, levels []entry) (int, error) {
	for _, l := range levels {
		if err := l.call(); err != nil {
			return 0, err
		}
	}
	innermost := 0
	ids := make([]int, len(levels))
	for rep := 0; rep < layerReps; rep++ {
		for k := range levels {
			i := (k + rep) % len(levels)
			start := time.Now()
			err := levels[i].call()
			end := time.Now()
			if err != nil {
				return 0, err
			}
			ids[i] = t.record(levels[i].name, 0, op, start, end)
		}
		t.mu.Lock()
		for i := 1; i < len(ids); i++ {
			t.spans[ids[i]-1].Parent = ids[i-1]
		}
		t.mu.Unlock()
		innermost = ids[len(ids)-1]
	}
	return innermost, nil
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

const traceNote = "spans are recorded by the harness around calls into each layer; " +
	"a span's parent is the same op issued one entry point further out, so " +
	"self time = span - child span; busy_ns, when set, is the summed time of " +
	"interleaved per-page calls and replaces end-start; see benchmark/README.md"

// write stores the spans as out/trace_<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Note: traceNote, Spans: t.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// perOp is the mean over ops of each op's quickest span called name: an op
// timed several times weighs once.
func (t *tracer) perOp(name string) time.Duration {
	best := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if d, ok := best[s.Op]; !ok || s.duration() < d {
			best[s.Op] = s.duration()
		}
	}
	if len(best) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return sum / time.Duration(len(best))
}

// selfTime is outer minus inner, floored at zero: the two were measured on
// separate calls, so a thin layer can come out a hair negative.
func selfTime(outer, inner time.Duration) time.Duration {
	if outer < inner {
		return 0
	}
	return outer - inner
}
