package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mithrilog"
)

const (
	// ingestBatch is the batch size of the set-up ingest, the same 4096
	// lines IngestReader and the HTTP /ingest handler use.
	ingestBatch = 4096
	// setupPasses identical build passes give setup_s as a median, so one
	// pass landing on a GC cycle or a noisy neighbour does not set it.
	setupPasses = 7
)

// buildPhases times one build pass, raw lines to a queryable reopened engine.
type buildPhases struct {
	ingest, flush, write, reopen, warm time.Duration
}

func (p buildPhases) total() time.Duration {
	return p.ingest + p.flush + p.write + p.reopen + p.warm
}

// built is what a build pass leaves behind.
type built struct {
	eng    *mithrilog.Engine // reopened from stream; serves the run
	stream []byte            // WriteSegments output
	phases buildPhases
	// stats are the reopened engine's contents as set-up left them, before
	// any run adds to them: the exact, per-seed base of the space metric.
	stats mithrilog.Stats
	// ingestStats and ingestObs describe the engine that took the raw
	// lines (the reopened one never ran the write path).
	ingestStats mithrilog.Stats
	ingestObs   scrape
}

func ingestAll(eng *mithrilog.Engine, lines [][]byte, batch int) error {
	for i := 0; i < len(lines); i += batch {
		j := i + batch
		if j > len(lines) {
			j = len(lines)
		}
		if err := eng.IngestBytes(lines[i:j]); err != nil {
			return fmt.Errorf("ingest lines %d-%d: %w", i, j, err)
		}
	}
	return nil
}

// buildOnce runs one pass: Open, IngestBytes in ingestBatch-line batches,
// Flush, WriteSegments, Reopen, and the workload's cache-warm pass if it
// has one. The engine that serves queries is the reopened one, so both the
// raw-lines-to-queryable cost and the crash-recovery cost are in setup_s.
func buildOnce(cfg mithrilog.Config, lines [][]byte, warm func(*mithrilog.Engine) error) (*built, error) {
	b := &built{}
	t := time.Now()
	first := mithrilog.Open(cfg)
	if err := ingestAll(first, lines, ingestBatch); err != nil {
		return nil, err
	}
	b.phases.ingest = time.Since(t)

	t = time.Now()
	if err := first.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	b.phases.flush = time.Since(t)
	b.ingestStats = first.Stats()
	b.ingestObs = scrapeEngine(first)

	t = time.Now()
	var buf bytes.Buffer
	if err := first.WriteSegments(&buf); err != nil {
		return nil, fmt.Errorf("write segments: %w", err)
	}
	b.phases.write = time.Since(t)
	b.stream = buf.Bytes()
	if err := first.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	t = time.Now()
	eng, err := mithrilog.Reopen(cfg, bytes.NewReader(b.stream))
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	b.phases.reopen = time.Since(t)
	b.eng, b.stats = eng, eng.Stats()

	if warm != nil {
		t = time.Now()
		if err := warm(eng); err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		b.phases.warm = time.Since(t)
	}
	return b, nil
}

// setup runs setupPasses build passes and keeps the last; setup_s is the
// median pass. Earlier passes are closed and collected before the next
// starts, so peak memory is one pass's.
func setup(cfg mithrilog.Config, lines [][]byte, warm func(*mithrilog.Engine) error) (*built, time.Duration, buildPhases, error) {
	var last *built
	var passes []buildPhases
	for i := 0; i < setupPasses; i++ {
		if last != nil {
			if err := last.eng.Close(); err != nil {
				return nil, 0, buildPhases{}, err
			}
			last = nil
			runtime.GC()
		}
		b, err := buildOnce(cfg, lines, warm)
		if err != nil {
			return nil, 0, buildPhases{}, fmt.Errorf("setup pass %d: %w", i+1, err)
		}
		last = b
		passes = append(passes, b.phases)
	}
	med := buildPhases{
		ingest: medianDuration(passes, func(p buildPhases) time.Duration { return p.ingest }),
		flush:  medianDuration(passes, func(p buildPhases) time.Duration { return p.flush }),
		write:  medianDuration(passes, func(p buildPhases) time.Duration { return p.write }),
		reopen: medianDuration(passes, func(p buildPhases) time.Duration { return p.reopen }),
		warm:   medianDuration(passes, func(p buildPhases) time.Duration { return p.warm }),
	}
	total := medianDuration(passes, buildPhases.total)
	return last, total, med, nil
}

func medianDuration(passes []buildPhases, of func(buildPhases) time.Duration) time.Duration {
	ds := make([]time.Duration, len(passes))
	for i, p := range passes {
		ds[i] = of(p)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// storedBytesPerRawByte is the space leg of the read/write/space triangle:
// compressed pages plus the resident index, per byte of log text.
func storedBytesPerRawByte(st mithrilog.Stats) float64 {
	if st.RawBytes == 0 {
		return 0
	}
	return float64(st.CompressedBytes+uint64(st.IndexMemoryBytes)) / float64(st.RawBytes)
}
