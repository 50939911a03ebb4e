// Package core is the unitcheck fixture. core.go mixes cycle counts,
// byte counts, clock rates, and durations directly (flagged) versus
// converting through the hwsim helpers (clean); paperconst.go re-types
// paper constants as literals.
package core

import (
	"time"

	"mithrilog/internal/hwsim"
)

type stats struct {
	Cycles   uint64
	RawBytes uint64
}

type sysCfg struct {
	ClockHz float64
}

// scanBytesPerSecond is a named rate constant; unitcheck tags it from its
// name, so dividing bytes by it below is a legal bytes/rate → time shape
// only when done through hwsim.
const scanBytesPerSecond = 1.5e9

func inlineMixes(s stats, cfg sysCfg, elapsed time.Duration) {
	_ = float64(s.Cycles) / cfg.ClockHz          // want `unit mix: cycles / hertz`
	_ = float64(s.RawBytes) / scanBytesPerSecond // want `unit mix: bytes / bytes/s`
	_ = float64(s.RawBytes) / elapsed.Seconds()  // want `unit mix: bytes / duration`
	_ = s.Cycles + s.RawBytes                    // want `unit mix: cycles \+ bytes`
}

// flowRename proves the tag travels through plain local copies whose names
// carry no unit hint.
func flowRename(s stats, cfg sysCfg) {
	n := s.Cycles
	r := n
	_ = float64(r) / cfg.ClockHz // want `unit mix: cycles / hertz`
}

// branchConflict proves the join lattice: v is cycles on one path and bytes
// on the other, so using it with a tagged operand is flagged as a
// control-flow conflict.
func branchConflict(s stats, pick bool) {
	v := uint64(0)
	if pick {
		v = s.Cycles
	} else {
		v = s.RawBytes
	}
	_ = v + s.Cycles // want `conflicting units`
}

// loopAccumulate proves the fixpoint carries the tag around a back edge:
// total only becomes cycles inside the loop body.
func loopAccumulate(s stats, cfg sysCfg) {
	total := uint64(0)
	for i := 0; i < 4; i++ {
		total = total + s.Cycles
	}
	_ = float64(total) / cfg.ClockHz // want `unit mix: cycles / hertz`
}

// clean covers the legal shapes: conversion through hwsim, same-unit
// arithmetic, dimensionless scale factors, and unit-cancelling ratios.
func clean(s stats, cfg sysCfg, elapsed time.Duration) {
	_ = hwsim.CyclesToDuration(s.Cycles, cfg.ClockHz)
	_ = hwsim.DurationForBytes(s.RawBytes, scanBytesPerSecond)
	_ = hwsim.BytesPerSecond(s.RawBytes, elapsed)

	delta := s.Cycles - s.Cycles // same unit: still cycles
	_ = delta * 2                // literal scale factor is dimensionless

	ratio := float64(s.RawBytes) / float64(s.RawBytes+1) // bytes/bytes cancels
	_ = ratio

	_ = elapsed / time.Duration(4) // conversion of a literal stays dimensionless
	_ = elapsed > 250*time.Millisecond
}
