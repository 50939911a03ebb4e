package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail is the tail percentile every run reports. It is taken over the
// quieter half of a run (quieterHalf), and op counts are fixed at 200 or more
// per run (sizeRun), so it always has minBeyond samples beyond it.
const tail = 0.90

// percentileSupported reports whether n samples leave at least minBeyond
// beyond the p-th percentile's rank.
func percentileSupported(n int, p float64) bool {
	return n-percentileRank(n, p) >= minBeyond
}

// percentileRank is the 1-based nearest-rank index of the p-th percentile.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(float64(n)*p - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[percentileRank(len(sorted), p)-1]
}

// median of an unsorted sample (the input is not modified).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vals, n=4) does (the driver's spread measure), so
// -selfcheck judges a benchmark the way the driver will.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	med := median(vals)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / med
}

// segmentThroughput is the median over segments of ops per second of
// segment wall time.
func segmentThroughput(ops []int, wall []time.Duration) float64 {
	rates := make([]float64, 0, len(ops))
	for i, n := range ops {
		if wall[i] > 0 {
			rates = append(rates, float64(n)/wall[i].Seconds())
		}
	}
	return median(rates)
}

// halfRun is the part of a timed run the time-based metrics are taken over.
type halfRun struct {
	segments  int
	ops       int
	wall, cpu time.Duration
	latencies []time.Duration // sorted ascending
}

// quieterHalf pools the half of a run's segments with the shortest wall
// time (the odd segment counts in). Segments do equal work, and what the box
// does to a segment (a neighbour's burst on the shared memory system) only
// ever lengthens it, so the quicker half is the half the box disturbed
// least, wherever in the run it lies. The selection looks at segment wall
// time alone; every metric then comes from all the ops of the chosen
// segments, their slow ones included.
func quieterHalf(st *runStats) halfRun {
	order := make([]int, len(st.segWall))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return st.segWall[order[a]] < st.segWall[order[b]] })
	var h halfRun
	for _, i := range order[:(len(order)+1)/2] {
		h.segments++
		h.ops += st.segOps[i]
		h.wall += st.segWall[i]
		h.cpu += st.segCPU[i]
		h.latencies = append(h.latencies, st.segLat[i]...)
	}
	sort.Slice(h.latencies, func(a, b int) bool { return h.latencies[a] < h.latencies[b] })
	return h
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
