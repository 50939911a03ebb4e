package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if !percentileSupported(100, tail) || 100-percentileRank(100, tail) != minBeyond {
		t.Errorf("p90 of 100 samples must have exactly %d beyond it, has %d", minBeyond, 100-percentileRank(100, tail))
	}
	if percentileSupported(99, tail) {
		t.Error("p90 of 99 samples has only 9 beyond it and must not be supported")
	}
	if percentileSupported(200, 0.95) != true || percentileSupported(199, 0.95) {
		t.Error("p95 needs exactly 200 samples")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 200; i++ {
		sorted = append(sorted, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(sorted, 0.95); got != 190*time.Millisecond {
		t.Errorf("p95 of 1..200 ms = %v, want 190ms", got)
	}
	if got := percentile(sorted, 0.5); got != 100*time.Millisecond {
		t.Errorf("p50 of 1..200 ms = %v, want 100ms", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestSegmentThroughputIsTheMedianSegment(t *testing.T) {
	ops := []int{24, 24, 24, 24, 24}
	wall := []time.Duration{time.Second, time.Second, 10 * time.Second, time.Second, 2 * time.Second}
	// Total ops over total time would be 120/15 = 8 ops/s; the median
	// segment ran at 24.
	if got := segmentThroughput(ops, wall); got != 24 {
		t.Errorf("segmentThroughput = %v, want 24", got)
	}
}

func TestQuieterHalfPoolsTheQuickestSegments(t *testing.T) {
	sec := time.Second
	st := &runStats{
		segOps:  []int{2, 2, 2, 2, 2},
		segWall: []time.Duration{4 * sec, sec, 10 * sec, 2 * sec, 3 * sec},
		segCPU:  []time.Duration{sec, sec, sec, 2 * sec, 3 * sec},
		segLat: [][]time.Duration{
			{2 * sec, 2 * sec}, {sec / 2, sec / 4}, {5 * sec, 5 * sec}, {sec, sec}, {2 * sec, sec},
		},
	}
	// Five segments: the quicker three count (walls of 1, 2 and 3 s),
	// wherever they lie, with every op they hold.
	h := quieterHalf(st)
	if h.segments != 3 || h.ops != 6 || h.wall != 6*sec || h.cpu != 6*sec {
		t.Errorf("quieterHalf = %d segments, %d ops, wall %v, cpu %v; want 3, 6, 6s, 6s", h.segments, h.ops, h.wall, h.cpu)
	}
	want := []time.Duration{sec / 4, sec / 2, sec, sec, sec, 2 * sec}
	if len(h.latencies) != len(want) {
		t.Fatalf("latencies %v, want %v", h.latencies, want)
	}
	for i := range want {
		if h.latencies[i] != want[i] {
			t.Fatalf("latencies %v, want %v", h.latencies, want)
		}
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	cases := []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{10, 12}, 9.5, 12.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// specByName finds an end-to-end metric's spec.
func specByName(name string) (metricSpec, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

func TestBoundComparisonFollowsTheMetricsDirection(t *testing.T) {
	thr, _ := specByName("throughput_ops_s") // higher is better
	lat, _ := specByName("latency_p50_ms")   // lower is better
	if thr.Better != higher || lat.Better != lower {
		t.Fatalf("directions changed: throughput %q, latency %q", thr.Better, lat.Better)
	}
	cases := []struct {
		spec       metricSpec
		base, cand float64
		regressed  bool
	}{
		{thr, 100, 100 * (1 - thr.Bound - 0.01), true},  // fewer ops/s, past the bound
		{thr, 100, 100 * (1 - thr.Bound + 0.01), false}, // fewer, inside the bound
		{thr, 100, 150, false},                          // faster is never a regression
		{lat, 100, 100 * (1 + lat.Bound + 0.01), true},  // slower, past the bound
		{lat, 100, 100 * (1 + lat.Bound - 0.01), false}, // slower, inside the bound
		{lat, 100, 50, false},                           // quicker is never a regression
	}
	for _, c := range cases {
		if got := c.spec.regressed(c.base, c.cand); got != c.regressed {
			t.Errorf("%s: base %v cand %v: regressed = %v, want %v (worsening %.3f)",
				c.spec.Name, c.base, c.cand, got, c.regressed, c.spec.worsening(c.base, c.cand))
		}
	}
	if w := thr.worsening(100, 150); w >= 0 {
		t.Errorf("a throughput gain must be a negative worsening, got %v", w)
	}
	if w := lat.worsening(100, 150); w <= 0 {
		t.Errorf("a latency loss must be a positive worsening, got %v", w)
	}
}

func TestCompareSetsUsesMedians(t *testing.T) {
	thr := metricSpec{Name: "throughput_ops_s", Unit: "ops/s", Better: higher, Bound: 0.08}
	a := []float64{100, 101, 99}
	b := []float64{95, 20, 96} // one wild run must not decide the verdict
	_, sb, gap, ok := compareSets(thr, a, b)
	if sb.median != 95 || !ok || math.Abs(gap-0.05) > 1e-12 {
		t.Errorf("compareSets: B median %v, gap %v, ok %v; want 95, 0.05, true", sb.median, gap, ok)
	}
	if _, _, _, ok := compareSets(thr, a, []float64{90, 91, 89}); ok {
		t.Error("a 10 % lower throughput median must exceed an 8 % bound")
	}
	// The two sets are the same code: B 40 % ahead of A is as much a
	// disagreement as B 40 % behind.
	_, _, gap, ok = compareSets(thr, a, []float64{140, 141, 139})
	if ok || math.Abs(gap+0.4) > 1e-12 {
		t.Errorf("B 40 %% better than A: gap %v, ok %v; want -0.4, false", gap, ok)
	}
	lat := metricSpec{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25}
	if _, _, _, ok := compareSets(lat, []float64{60, 61, 59}, []float64{41, 42, 40}); ok {
		t.Error("a latency median a third lower in B must exceed a 25 % bound")
	}
	if tooNoisy(thr, []float64{100, 101, 99, 100}) || !tooNoisy(thr, []float64{80, 100, 120, 100}) {
		t.Error("a spread of 2 % is inside an 8 % bound, one of 40 % is not")
	}
	if tooNoisy(metricSpec{Name: "setup_s", Better: lower, Bound: 0.08}, []float64{80, 100, 120, 100}) {
		t.Error("setup_s is exempt from the spread check")
	}
}
