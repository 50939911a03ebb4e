package hwsim

// This file is the unit-conversion API: the one place where cycle counts,
// byte counts, clock rates, and wall time mix. Every simulated-time and
// throughput figure the repository reports goes through these three
// functions or the SystemConfig derivations in hwsim.go, and the ledger
// and scan goldens pin the figures they produce.

import "time"

// CyclesToDuration converts a busy-cycle count at the given clock into
// wall time. It replaces the inline float64(cycles)/clockHz*time.Second
// pattern that used to live in the query-time derivations.
func CyclesToDuration(cycles uint64, clockHz float64) time.Duration {
	if clockHz <= 0 || cycles == 0 {
		return 0
	}
	return time.Duration(float64(cycles) / clockHz * float64(time.Second))
}

// DurationForBytes is the time a link or engine needs to move n bytes at
// the given rate (bytes/second): the transfer-time side of the unit
// algebra.
func DurationForBytes(n uint64, bytesPerSecond float64) time.Duration {
	if bytesPerSecond <= 0 || n == 0 {
		return 0
	}
	return time.Duration(float64(n) / bytesPerSecond * float64(time.Second))
}

// BytesPerSecond is the rate at which n bytes moved over elapsed d — the
// throughput side of the unit algebra (Fig. 13/14 report these in GB/s).
func BytesPerSecond(n uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
