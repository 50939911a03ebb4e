package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// minSegments is the fewest equal segments a timed run is cut into.
const minSegments = 8

// loop is one closed-loop run: `clients` callers each issue their next op
// only after the previous one returned. The run is cut into equal segments
// with a barrier between them; the time-based metrics come from the quieter
// half of the segments (quieterHalf).
type loop struct {
	clients  int
	segments int
	perSeg   int // ops per client per segment

	// begin and end bracket a segment inside its wall time without being
	// ops (ingest_stream opens a fresh engine and flushes it there).
	begin, end func(seg int) error
	// op runs one operation and returns its latency. A non-nil error is a
	// failed op: it is counted and contributes no latency sample.
	op func(client, seg, i int) (time.Duration, error)
}

// runStats is what a timed run measured, segment by segment.
type runStats struct {
	segLat    [][]time.Duration // latencies of the segment's successful ops
	segOps    []int
	segWall   []time.Duration
	segCPU    []time.Duration // process user+sys CPU per segment
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
}

// run executes the loop. The caller has already made its untimed warm pass;
// run collects garbage once so no run inherits the set-up's heap debt.
func (l loop) run(tr *tracer) (*runStats, error) {
	st := &runStats{}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
		mu.Unlock()
	}
	runtime.GC()
	start := time.Now()
	for seg := 0; seg < l.segments; seg++ {
		segStart, cpu0 := time.Now(), processCPU()
		if l.begin != nil {
			if err := l.begin(seg); err != nil {
				return nil, fmt.Errorf("segment %d: %w", seg, err)
			}
		}
		perClient := make([][]time.Duration, l.clients)
		var wg sync.WaitGroup
		for c := 0; c < l.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < l.perSeg; i++ {
					opStart := time.Now()
					lat, err := l.op(c, seg, i)
					if err != nil {
						fail(err)
						continue
					}
					perClient[c] = append(perClient[c], lat)
					tr.record("op", 0, (seg*l.perSeg+i)*l.clients+c, opStart, opStart.Add(lat))
				}
			}(c)
		}
		wg.Wait()
		if l.end != nil {
			if err := l.end(seg); err != nil {
				return nil, fmt.Errorf("segment %d: %w", seg, err)
			}
		}
		var lat []time.Duration
		for _, ls := range perClient {
			lat = append(lat, ls...)
		}
		st.segLat = append(st.segLat, lat)
		st.segOps = append(st.segOps, l.clients*l.perSeg)
		st.segWall = append(st.segWall, time.Since(segStart))
		st.segCPU = append(st.segCPU, processCPU()-cpu0)
		st.attempted += l.clients * l.perSeg
	}
	st.wall = time.Since(start)
	return st, nil
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would only zero the two metrics derived from it.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	return float64(rusage().Maxrss) / 1024
}
