// Package sched fronts a core.Engine with a concurrent query scheduler:
// admission control (a bounded in-flight limit with a bounded wait queue
// and per-query deadlines), a shared decompressed-page cache (cache.go),
// and simulated arbitration for the accelerator's filter pipelines
// (hwsim.Arbiter). The engine itself already executes queries safely in
// parallel under a shared read lock; what it cannot do alone is say *no*
// to excess load, bound tail latency, share decompression work across
// queries, or account for the fact that the modeled hardware has exactly
// one set of physical pipelines. Those four concerns live here.
//
// The scheduler has no background goroutines: admission is a semaphore
// (a buffered channel of slots) acquired on the caller's goroutine, so
// there is nothing to shut down and cancellation composes directly with
// the caller's context.
package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"mithrilog/internal/core"
	"mithrilog/internal/hwsim"
	"mithrilog/internal/obs"
	"mithrilog/internal/query"
)

// ErrQueueFull reports a query rejected at admission: the in-flight limit
// was reached and the wait queue was already at QueueDepth. Callers should
// surface it as backpressure (HTTP 429), not as a query failure.
var ErrQueueFull = errors.New("sched: admission queue full")

// Config tunes the scheduler.
type Config struct {
	// MaxInFlight bounds the queries executing concurrently (default 8).
	MaxInFlight int
	// QueueDepth bounds the queries waiting for an execution slot beyond
	// MaxInFlight; arrivals past the bound fail fast with ErrQueueFull
	// (default 64).
	QueueDepth int
	// Timeout is the per-query deadline applied on admission, covering
	// both queue wait and execution; zero disables it. The deadline is
	// enforced between page scans, so a timed-out query aborts with
	// context.DeadlineExceeded instead of finishing its candidate set.
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Scheduler serializes admission for one engine. Create with New; the
// zero value is not usable.
type Scheduler struct {
	eng *core.Engine
	cfg Config

	// slots is the execution semaphore: a send acquires, a receive
	// releases.
	slots chan struct{}
	// waiting counts queries blocked on a slot, bounded by QueueDepth.
	waiting atomic.Int64

	// arb accounts simulated pipeline contention between in-flight
	// queries.
	arb hwsim.Arbiter

	admitted *obs.Counter
	rejected *obs.Counter
	timeouts *obs.Counter
	waitSec  *obs.Histogram
	queueSim *obs.Counter
}

// New builds a scheduler over eng and registers its queue metrics into
// the engine's registry.
func New(eng *core.Engine, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		eng:   eng,
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
	reg := eng.Obs()
	s.admitted = reg.Counter("mithrilog_sched_admitted_total",
		"Queries admitted past the scheduler's in-flight limit.")
	s.rejected = reg.Counter("mithrilog_sched_rejected_total",
		"Queries rejected at admission because the wait queue was full.")
	s.timeouts = reg.Counter("mithrilog_sched_timeouts_total",
		"Queries aborted by the per-query deadline (in queue or mid-scan).")
	s.waitSec = reg.Histogram("mithrilog_sched_wait_seconds",
		"Host wall time queries spent waiting for an execution slot.",
		obs.DurationBuckets())
	s.queueSim = reg.Counter("mithrilog_sched_queue_sim_seconds_total",
		"Simulated time queries spent waiting for the filter pipelines held by other in-flight queries.")
	reg.GaugeFunc("mithrilog_sched_in_flight",
		"Queries currently holding an execution slot.",
		nil, func() float64 { return float64(len(s.slots)) })
	reg.GaugeFunc("mithrilog_sched_queued",
		"Queries currently waiting for an execution slot.",
		nil, func() float64 { return float64(s.waiting.Load()) })
	return s
}

// Engine returns the wrapped engine, for callers needing direct access
// (ingest, stats — anything that is not a query).
func (s *Scheduler) Engine() *core.Engine { return s.eng }

// acquire claims an execution slot, waiting in the bounded queue if the
// in-flight limit is reached. It returns the release function, or
// ErrQueueFull / the context's error.
func (s *Scheduler) acquire(ctx context.Context) (release func(), err error) {
	release = func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		s.admitted.Inc()
		return release, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		s.rejected.Inc()
		return nil, ErrQueueFull
	}
	defer s.waiting.Add(-1)
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
		s.waitSec.ObserveSince(start)
		s.admitted.Inc()
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deadline applies the configured per-query timeout. ctx must be non-nil:
// the scheduler sits below the facade, and the ctxflow invariant (LINT.md)
// requires everything below the facade to thread its caller's context
// rather than minting context.Background() — the facade is the one place a
// missing context is replaced.
func (s *Scheduler) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(ctx, s.cfg.Timeout)
	}
	return ctx, func() {}
}

// note counts a deadline abort; other errors pass through untouched.
func (s *Scheduler) note(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Inc()
	}
	return err
}

// admit is the one admission wrapper both query kinds run under: the
// per-query deadline, an execution slot, and residency on the pipeline
// arbiter. run receives the deadline-carrying context and the number of
// queries sharing the device with it (itself included).
func (s *Scheduler) admit(ctx context.Context, run func(ctx context.Context, sharers int) error) error {
	ctx, cancel := s.deadline(ctx)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		return s.note(err)
	}
	defer release()
	sharers := s.arb.Enter()
	defer s.arb.Exit()
	return s.note(run(ctx, sharers))
}

// queueTime accounts simulated pipeline contention for a query that held
// the filter-pipeline complex: with k queries resident on the device, its
// isolated device-busy time max(stream, filter) stretches by QueueTime =
// busy×(k−1) (see hwsim.Arbiter). Callers report it in the result and
// fold it into SimElapsed.
func (s *Scheduler) queueTime(stream, filter time.Duration, sharers int) time.Duration {
	qt := hwsim.QueueTime(max(stream, filter), sharers)
	s.queueSim.Add(qt.Seconds())
	return qt
}

// Search runs q through admission control and the engine, then accounts
// simulated pipeline contention in the result's QueueTime. The host
// software fallback never holds the pipelines and reports no queueing.
func (s *Scheduler) Search(ctx context.Context, q query.Query, opts core.SearchOptions) (core.SearchResult, error) {
	var res core.SearchResult
	err := s.admit(ctx, func(ctx context.Context, sharers int) (err error) {
		opts.Ctx = ctx
		res, err = s.eng.Search(q, opts)
		if err == nil && res.Offloaded {
			res.QueueTime = s.queueTime(res.StreamTime, res.FilterTime, sharers)
			res.SimElapsed += res.QueueTime
		}
		return err
	})
	return res, err
}

// SearchRegex runs a regex scan under admission control with the
// scheduler's deadline threaded into the page loop. A prefiltered scan
// runs candidate pages through the filter-pipeline complex just like a
// token query, so it pays contention QueueTime; a full-scan fallback
// bypasses the token engine (pages are forwarded to the host) and
// reports no queueing.
func (s *Scheduler) SearchRegex(ctx context.Context, pattern string, opts core.RegexOptions) (core.RegexResult, error) {
	var res core.RegexResult
	err := s.admit(ctx, func(ctx context.Context, sharers int) (err error) {
		opts.Ctx = ctx
		res, err = s.eng.SearchRegexOpts(pattern, opts)
		if err == nil && res.Prefiltered {
			res.QueueTime = s.queueTime(res.StreamTime, res.FilterTime, sharers)
			res.SimElapsed += res.QueueTime
		}
		return err
	})
	return res, err
}
