package main

// ownLoops is the first part of every traced run: the workload's own loop,
// one segment at a time, alternating plain and traced so that a drift of
// the machine falls on both alike. The traced segments record one span per
// op; traced over plain throughput is trace.overhead_ratio. The caller
// scrapes the engine's registry before and after for the count metrics.
func ownLoops(mk func() loop, tr *tracer, lm *layerMetrics) (*outcome, error) {
	out := &outcome{}
	var plain, traced runStats
	for seg := 0; seg < 2*mk().segments; seg++ {
		into, t := &plain, (*tracer)(nil)
		if seg%2 == 1 {
			into, t = &traced, tr
		}
		l := mk()
		l.segments = 1
		st, err := l.run(t)
		if err != nil {
			return nil, err
		}
		into.segOps = append(into.segOps, st.segOps...)
		into.segWall = append(into.segWall, st.segWall...)
		out.attempted += st.attempted
		out.failed += st.failed
		if out.firstErr == nil {
			out.firstErr = st.firstErr
		}
	}
	lm.set("trace.overhead_ratio", ratio(segmentThroughput(traced.segOps, traced.segWall), segmentThroughput(plain.segOps, plain.segWall)))
	return out, nil
}

// finishTrace writes the span file and hands the metrics over.
func finishTrace(rc *runCtx, tr *tracer, lm *layerMetrics, out *outcome) (*outcome, error) {
	path, err := tr.write(rc.p.outDir, rc.w.name, rc.p.seed)
	if err != nil {
		return nil, err
	}
	out.notef("trace: %d spans written to %s", len(tr.spans), path)
	out.metrics = lm.m
	return out, nil
}

// replayBest replays an op layerReps times and keeps the least disturbed
// replay, the one with the least busy time.
func replayBest(replay func() (leafTimes, error)) (leafTimes, error) {
	var best leafTimes
	for rep := 0; rep < layerReps; rep++ {
		lt, err := replay()
		if err != nil {
			return lt, err
		}
		if rep == 0 || lt.busy() < best.busy() {
			best = lt
		}
	}
	return best, nil
}
