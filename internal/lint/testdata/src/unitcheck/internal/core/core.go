// Package core is the fixture of the retired unitcheck unit lattice: it
// mixes cycle counts, byte counts, clock rates and durations directly, in
// an engine package that paperconst checks. None of it spells a paper
// constant, so it must produce no findings: the literal scale factors,
// loop bounds and rate constant below are not paper constants.
package core

import "time"

type stats struct {
	Cycles   uint64
	RawBytes uint64
}

type sysCfg struct {
	ClockHz float64
}

// scanBytesPerSecond is a named rate constant whose name and value claim
// no paper concept.
const scanBytesPerSecond = 1.5e9

func inlineMixes(s stats, cfg sysCfg, elapsed time.Duration) {
	_ = float64(s.Cycles) / cfg.ClockHz
	_ = float64(s.RawBytes) / scanBytesPerSecond
	_ = float64(s.RawBytes) / elapsed.Seconds()
	_ = s.Cycles + s.RawBytes
}

func branchConflict(s stats, pick bool) {
	v := uint64(0)
	if pick {
		v = s.Cycles
	} else {
		v = s.RawBytes
	}
	_ = v + s.Cycles
}

func loopAccumulate(s stats, cfg sysCfg) {
	total := uint64(0)
	for i := 0; i < 4; i++ {
		total = total + s.Cycles
	}
	_ = float64(total) / cfg.ClockHz
}

func scaled(s stats, elapsed time.Duration) {
	delta := s.Cycles - s.Cycles
	_ = delta * 2
	_ = elapsed / time.Duration(16)
	_ = elapsed > 250*time.Millisecond
}
