// Package router scales MithriLog out: N ≥ 1 shards — each a full engine
// with its own simulated SSD, accelerator complex, scheduler, and page
// cache — behind a scatter-gather query router with COPR-style tenant
// partitioning. Tenant-tagged ingest is placed on the tenant's home
// shard (a hash of the tenant name); untenanted ingest is striped
// round-robin across all shards. Queries for a tenant go to its home
// shard alone; untenanted queries scatter to every shard and gather
// merged results.
//
// One shard is the single engine: it shares the router's metrics
// registry (an unlabeled exposition), has no tenant quota and no shard
// deadline, returns lines in page order, and persists as a bare engine
// segment stream.
//
// Placement never alters data: a line's bytes are identical whether the
// fleet has one shard or eight, which is what lets the multi-shard
// differential oracle demand byte-identical merged results between a
// 1-shard and an N-shard deployment.
//
// Failure semantics are partial by design: a shard that times out or is
// rejected at its local admission queue is reported per shard
// (Result.Failed) while the other shards' results are still returned,
// with Result.Partial set. Only when every queried shard fails does
// Search return an error. Per-tenant admission quotas
// (sched.TenantLimiter) run at the router, in front of the per-shard
// schedulers, so one tenant's burst cannot monopolize the fleet.
//
// The router spawns goroutines only for a scatter to two or more shards
// (joined before Search returns) and holds no locks across shard calls;
// a query with one target runs on the caller's goroutine. Close waits
// for in-flight requests and then no goroutine remains.
package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mithrilog/internal/core"
	"mithrilog/internal/obs"
	"mithrilog/internal/query"
	"mithrilog/internal/sched"
	"mithrilog/internal/storage"
)

// ErrClosed reports an operation on a closed router.
var ErrClosed = errors.New("router: closed")

// ErrTenantQuota mirrors sched.ErrTenantQuota for callers that only
// import the router.
var ErrTenantQuota = sched.ErrTenantQuota

// Config assembles a router.
type Config struct {
	// Shards is the number of independent engine shards (default 1).
	Shards int
	// Engine is the per-shard engine configuration template. Metrics and
	// PageCache must be unset: every shard gets a private registry (see
	// Federation; at one shard, the router's) and, when CacheBytes > 0, a
	// private page cache — page IDs collide across shards, so a shared
	// cache would serve one shard's pages to another.
	Engine core.Config
	// Sched is the per-shard admission-control configuration.
	Sched sched.Config
	// CacheBytes sizes each shard's decompressed-page cache (0 disables).
	CacheBytes int64
	// TenantInFlight bounds concurrent queries per tenant across the
	// whole router (default sched.DefaultTenantInFlight). Ignored at one
	// shard.
	TenantInFlight int
	// ShardTimeout bounds each shard's portion of a scatter-gather query;
	// a shard past it reports context.DeadlineExceeded in Result.Failed
	// while the rest of the fleet still answers. Zero leaves only the
	// caller's context and the per-shard scheduler timeout. Ignored at
	// one shard.
	ShardTimeout time.Duration
}

// shard is one engine plus its admission layer and private metrics.
// Every field is shard-local by construction: the router may call
// through these references during one scatter, but must never hand
// them to another shard, a router field, or a goroutine that outlives
// the per-shard call (mithrilint's shardiso analyzer enforces this).
type shard struct {
	eng   *core.Engine     // shard-owned
	sch   *sched.Scheduler // shard-owned
	cache *sched.PageCache // shard-owned
	reg   *obs.Registry    // shard-owned
}

// Router fans ingest and queries across shards. All methods are safe for
// concurrent use.
type Router struct {
	cfg     Config
	shards  []*shard             // shard-owned
	limiter *sched.TenantLimiter // nil at one shard

	// rr stripes untenanted ingest lines across shards.
	rr atomic.Uint64

	// mu guards closed; active tracks in-flight operations so Close can
	// drain them. The mutex is never held across a shard call.
	mu     sync.Mutex
	closed bool // guarded by mu
	active sync.WaitGroup

	reg          *obs.Registry
	fed          *obs.Federation
	queries      *obs.Counter
	partials     *obs.Counter
	shardErrors  *obs.CounterVec
	shardQueries *obs.Counter
}

// New builds a router with cfg.Shards independent shards.
func New(cfg Config) (*Router, error) {
	return build(cfg, normShards(cfg.Shards), func(ecfg core.Config) (*core.Engine, error) {
		return core.NewEngine(ecfg), nil
	})
}

func normShards(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}

// build assembles the router shell and constructs each shard's engine
// through mk (NewEngine for a fresh router, ReopenStore for recovery).
// One shard registers its series in the router's registry, so the
// exposition stays unlabeled, and runs with no tenant quota and no shard
// deadline.
func build(cfg Config, nShards int, mk func(core.Config) (*core.Engine, error)) (*Router, error) {
	if cfg.Engine.Metrics != nil {
		return nil, errors.New("router: Config.Engine.Metrics must be unset (each shard gets a private registry)")
	}
	if cfg.Engine.PageCache != nil {
		return nil, errors.New("router: Config.Engine.PageCache must be unset (use Config.CacheBytes)")
	}
	if nShards == 1 {
		cfg.ShardTimeout = 0
	}
	r := &Router{
		cfg: cfg,
		reg: obs.NewRegistry(),
		fed: obs.NewFederation(),
	}
	r.queries = r.reg.Counter("mithrilog_router_queries_total",
		"Queries accepted by the router (past the tenant quota).")
	r.partials = r.reg.Counter("mithrilog_router_partial_results_total",
		"Queries that returned with at least one failed shard.")
	r.shardErrors = r.reg.CounterVec("mithrilog_router_shard_errors_total",
		"Per-shard failures observed during scatter-gather queries.",
		"shard")
	r.shardQueries = r.reg.Counter("mithrilog_router_shard_queries_total",
		"Per-shard sub-queries issued by scatter-gather (ratio to queries_total is the mean scatter width).")
	if nShards > 1 {
		r.limiter = sched.NewTenantLimiter(cfg.TenantInFlight)
		r.limiter.RegisterMetrics(r.reg)
	}
	r.reg.GaugeFunc("mithrilog_router_shards",
		"Shards behind the router.",
		nil, func() float64 { return float64(len(r.shards)) })
	r.fed.Add(r.reg, "", "")

	for i := 0; i < nShards; i++ {
		reg := r.reg
		if nShards > 1 {
			reg = obs.NewRegistry()
			r.fed.Add(reg, "shard", strconv.Itoa(i))
		}
		ecfg := cfg.Engine
		ecfg.Metrics = reg
		var cache *sched.PageCache
		if cfg.CacheBytes > 0 {
			cache = sched.NewPageCache(cfg.CacheBytes)
			ecfg.PageCache = cache
		}
		eng, err := mk(ecfg)
		if err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		if cache != nil {
			cache.RegisterMetrics(reg)
		}
		sh := &shard{
			eng:   eng,
			sch:   sched.New(eng, cfg.Sched),
			cache: cache,
			reg:   reg,
		}
		r.shards = append(r.shards, sh)
	}
	return r, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// ShardFor returns the home shard index for a tenant (the hash-based
// placement untenanted traffic bypasses).
func (r *Router) ShardFor(tenant string) int {
	return shardIndex(tenant, len(r.shards))
}

// Shard exposes one shard's engine (stats, tests, benchmarks, and the
// facade's single-engine passes on a one-shard fleet). It is a
// deliberate, documented hole in shard isolation: callers get read-only
// introspection (Stats, differential oracles) and must not retain the
// engine past the call.
//
//mithrilint:ignore shardiso Shard is the documented introspection escape hatch; callers must not retain the engine
func (r *Router) Shard(i int) *core.Engine { return r.shards[i].eng }

// Limiter exposes the router's tenant quota layer (tests, admission
// introspection); nil at one shard, which has no tenant quota.
func (r *Router) Limiter() *sched.TenantLimiter { return r.limiter }

// ObserveParseTime records a query's parse time on the tenant's home
// shard: the query is parsed once, however wide its scatter.
func (r *Router) ObserveParseTime(tenant string, d time.Duration) {
	r.shards[shardIndex(tenant, len(r.shards))].eng.ObserveParseTime(d)
}

// Obs returns the router's own registry (quota and scatter metrics),
// which at one shard is also the shard's.
func (r *Router) Obs() *obs.Registry { return r.reg }

// Federation returns the federated view of the router registry plus, on
// two or more shards, every shard's registry, each shard's series labeled
// shard="<i>".
func (r *Router) Federation() *obs.Federation { return r.fed }

// shardIndex is FNV-1a placement: stable across runs and shard-local
// (no coordination), like COPR's tenant partitioning.
func shardIndex(tenant string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// begin admits one operation, failing if the router is closed. The
// matching r.active.Done() must be deferred by the caller.
func (r *Router) begin() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.active.Add(1)
	return nil
}

// Close marks the router closed, waits for in-flight operations to
// drain, and flushes every shard. After Close no router goroutine
// remains (scatter goroutines are joined per request).
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.active.Wait()
	var errs []error
	for i, sh := range r.shards {
		if err := sh.eng.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Ingest places lines on shards. Tenant-tagged lines all land on the
// tenant's home shard; untenanted lines are striped round-robin so every
// shard carries an even share. Line bytes are stored untouched — tenancy
// decides placement, never content.
func (r *Router) Ingest(tenant string, lines [][]byte) error {
	if err := r.begin(); err != nil {
		return err
	}
	defer r.active.Done()
	n := len(r.shards)
	if tenant != "" || n == 1 {
		return r.shards[shardIndex(tenant, n)].eng.Ingest(lines)
	}
	// Every shard shares one engine config: check the whole batch once,
	// before any shard buffers a line of it.
	if err := r.shards[0].eng.CheckLines(lines); err != nil {
		return err
	}
	base := r.rr.Add(uint64(len(lines))) - uint64(len(lines))
	buckets := make([][][]byte, n)
	for i, line := range lines {
		s := int((base + uint64(i)) % uint64(n))
		buckets[s] = append(buckets[s], line)
	}
	for s, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if err := r.shards[s].eng.Ingest(b); err != nil {
			return fmt.Errorf("router: shard %d: %w", s, err)
		}
	}
	return nil
}

// Flush flushes every shard (buffered lines become pages, indexes flush).
func (r *Router) Flush() error {
	if err := r.begin(); err != nil {
		return err
	}
	defer r.active.Done()
	for i, sh := range r.shards {
		if err := sh.eng.Flush(); err != nil {
			return fmt.Errorf("router: shard %d: %w", i, err)
		}
	}
	return nil
}

// Snapshot records a time boundary on every shard for range queries.
func (r *Router) Snapshot(ts time.Time) error {
	if err := r.begin(); err != nil {
		return err
	}
	defer r.active.Done()
	for i, sh := range r.shards {
		if err := sh.eng.TakeSnapshot(ts); err != nil {
			return fmt.Errorf("router: shard %d: %w", i, err)
		}
	}
	return nil
}

// Export writes every shard's decompressed text to w, in shard order,
// and returns the bytes written.
func (r *Router) Export(w io.Writer) (uint64, error) {
	if err := r.begin(); err != nil {
		return 0, err
	}
	defer r.active.Done()
	var n uint64
	for i, sh := range r.shards {
		res, err := sh.eng.Export(w)
		n += res.RawBytes
		if err != nil {
			return n, fmt.Errorf("router: shard %d: %w", i, err)
		}
	}
	return n, nil
}

// ShardError is one shard's failure within an otherwise-served query.
type ShardError struct {
	Shard int
	Err   error
}

// Gather summarizes one scatter: how wide it went and which shards did
// not answer. Both result kinds carry it.
type Gather struct {
	// Partial reports that at least one queried shard failed; Failed
	// lists them. A query only errors when every shard fails.
	Partial bool
	Failed  []ShardError

	// ShardsQueried counts the scatter width (1 for tenant queries);
	// EmptyShards counts shards with nothing ingested (not failures).
	ShardsQueried int
	EmptyShards   int
}

// Result is a merged scatter-gather search result: the fleet's view of
// the answering shards' results, in the shape one engine reports, plus
// the gather summary. Matches and the page counts sum. On two or more
// shards lines are in canonical (byte-wise lexicographic) order, so the
// merged bytes are identical regardless of shard count or gather arrival
// order; with a Limit, each shard returns its Limit smallest lines and
// the merge keeps the Limit smallest of those, which are the fleet's. One
// shard's lines come back as its engine returned them: in page order, or
// the canonical prefix under a Limit. Offloaded / UsedIndex hold if they
// do on every answering shard. Shards scan in parallel, so the slowest
// binds: SimElapsed and the four simulated components it decomposes into
// are that shard's. QueueTime is the worst shard's pipeline queue share,
// WallElapsed the host time of the scatter. Fields not named here are not
// merged and stay zero.
type Result struct {
	core.SearchResult
	Gather
}

// shardDeadline layers the per-shard timeout onto the caller's context.
func (r *Router) shardDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.cfg.ShardTimeout > 0 {
		return context.WithTimeout(ctx, r.cfg.ShardTimeout)
	}
	return ctx, func() {}
}

// wide reports whether a tenant's query scatters to every shard of a
// fleet of two or more, rather than running on one shard.
func (r *Router) wide(tenant string) bool {
	return tenant == "" && len(r.shards) > 1
}

// scatter is the one scatter-gather both query kinds run: admit the query
// against the tenant quota (ErrTenantQuota surfaces before any shard is
// touched), run it under per-shard deadlines on the tenant's home shard,
// on the caller's goroutine, or — when wide — on every shard in parallel,
// and hand the answers to fold in shard order (first marks the first).
// An empty shard is a valid fleet state, not a failure; the query errors
// only when no shard answered — ErrNothingIngested if all were empty,
// else the shard errors. A one-shard fleet returns its engine's error as
// is. Scatter goroutines are joined before scatter returns.
func scatter[R any](ctx context.Context, r *Router, tenant string, run func(context.Context, *sched.Scheduler) (R, error), fold func(first bool, res R)) (Gather, error) {
	if err := r.begin(); err != nil {
		return Gather{}, err
	}
	defer r.active.Done()
	if r.limiter != nil {
		release, err := r.limiter.Acquire(tenant)
		if err != nil {
			return Gather{}, err
		}
		defer release()
	}
	r.queries.Inc()

	n := len(r.shards)
	if !r.wide(tenant) {
		r.shardQueries.Inc()
		si := shardIndex(tenant, n)
		sctx, cancel := r.shardDeadline(ctx)
		defer cancel()
		res, err := run(sctx, r.shards[si].sch)
		switch {
		case err == nil:
			fold(true, res)
			return Gather{ShardsQueried: 1}, nil
		case n > 1 && !errors.Is(err, core.ErrNothingIngested):
			r.shardErrors.WithLabelValues(strconv.Itoa(si)).Inc()
			err = fmt.Errorf("shard %d: %w", si, err)
		}
		return Gather{}, err
	}

	r.shardQueries.Add(float64(n))
	type shardOut struct {
		res R
		err error
	}
	outs := make([]shardOut, n)
	var wg sync.WaitGroup
	for si := range outs {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sctx, cancel := r.shardDeadline(ctx)
			defer cancel()
			res, err := run(sctx, r.shards[si].sch)
			outs[si] = shardOut{res: res, err: err}
		}(si)
	}
	wg.Wait()

	g := Gather{ShardsQueried: n}
	nOK := 0
	var errs []error
	for si := range outs {
		o := &outs[si]
		switch {
		case o.err == nil:
			fold(nOK == 0, o.res)
			nOK++
		case errors.Is(o.err, core.ErrNothingIngested):
			g.EmptyShards++
		default:
			g.Failed = append(g.Failed, ShardError{Shard: si, Err: o.err})
			r.shardErrors.WithLabelValues(strconv.Itoa(si)).Inc()
			errs = append(errs, fmt.Errorf("shard %d: %w", si, o.err))
		}
	}
	if nOK == 0 && g.EmptyShards == n {
		return Gather{}, core.ErrNothingIngested
	}
	if nOK == 0 && g.EmptyShards == 0 {
		return Gather{}, errors.Join(errs...)
	}
	if len(g.Failed) > 0 {
		g.Partial = true
		r.partials.Inc()
	}
	return g, nil
}

// appendLines gathers a shard's lines into the merge; the first shard's
// slice is adopted, not copied, so a one-shard query costs no copy.
func appendLines(first bool, merged, lines [][]byte) [][]byte {
	if first {
		return lines
	}
	return append(merged, lines...)
}

// Search scatters q (see scatter for routing, quota, and partial-failure
// semantics) and merges per the rules on Result. A query that runs on one
// shard records its span tree into opts.Trace like a single engine; a
// wide scatter's span trees would interleave, so it only annotates the
// root with the fleet shape.
func (r *Router) Search(ctx context.Context, tenant string, q query.Query, opts core.SearchOptions) (Result, error) {
	start := time.Now()
	trace := opts.Trace
	if r.wide(tenant) {
		opts.Trace = nil
	}
	var m core.SearchResult
	g, err := scatter(ctx, r, tenant,
		func(ctx context.Context, s *sched.Scheduler) (core.SearchResult, error) {
			return s.Search(ctx, q, opts)
		},
		func(first bool, s core.SearchResult) {
			m.Matches += s.Matches
			m.Lines = appendLines(first, m.Lines, s.Lines)
			m.TotalPages += s.TotalPages
			m.CandidatePages += s.CandidatePages
			m.CachedPages += s.CachedPages
			m.Offloaded = (first || m.Offloaded) && s.Offloaded
			m.UsedIndex = (first || m.UsedIndex) && s.UsedIndex
			if s.SimElapsed > m.SimElapsed {
				m.SimElapsed = s.SimElapsed
				m.IndexTime, m.StreamTime, m.FilterTime, m.ReturnTime = s.IndexTime, s.StreamTime, s.FilterTime, s.ReturnTime
			}
			m.QueueTime = max(m.QueueTime, s.QueueTime)
		})
	if err != nil {
		return Result{}, err
	}
	if len(r.shards) > 1 {
		m.Lines = core.CanonicalLines(m.Lines, opts.Limit)
		trace.SetAttrInt("shards_queried", int64(g.ShardsQueried))
		trace.SetAttrInt("empty_shards", int64(g.EmptyShards))
		trace.SetAttrBool("partial", g.Partial)
		if tenant != "" {
			trace.SetAttr("tenant", tenant)
		}
	}
	m.WallElapsed = time.Since(start)
	return Result{SearchResult: m, Gather: g}, nil
}

// RegexResult is a merged scatter-gather regex scan, merged like Result.
// Shards share the pattern, so they agree on Prefiltered unless a shard
// answered nothing.
type RegexResult struct {
	core.RegexResult
	Gather
}

// SearchRegex scatters a regex scan with the same routing, quota, and
// partial-failure semantics as Search.
func (r *Router) SearchRegex(ctx context.Context, tenant, pattern string, opts core.RegexOptions) (RegexResult, error) {
	start := time.Now()
	var m core.RegexResult
	g, err := scatter(ctx, r, tenant,
		func(ctx context.Context, s *sched.Scheduler) (core.RegexResult, error) {
			return s.SearchRegex(ctx, pattern, opts)
		},
		func(first bool, s core.RegexResult) {
			m.Matches += s.Matches
			m.Lines = appendLines(first, m.Lines, s.Lines)
			m.TotalPages += s.TotalPages
			m.CandidatePages += s.CandidatePages
			m.CachedPages += s.CachedPages
			m.Prefiltered = (first || m.Prefiltered) && s.Prefiltered
			if s.SimElapsed > m.SimElapsed {
				m.SimElapsed = s.SimElapsed
				m.IndexTime, m.StreamTime, m.FilterTime = s.IndexTime, s.StreamTime, s.FilterTime
				m.VerifyTime, m.ReturnTime = s.VerifyTime, s.ReturnTime
			}
			m.QueueTime = max(m.QueueTime, s.QueueTime)
		})
	if err != nil {
		return RegexResult{}, err
	}
	if len(r.shards) > 1 {
		m.Lines = core.CanonicalLines(m.Lines, opts.Limit)
	}
	m.WallElapsed = time.Since(start)
	return RegexResult{RegexResult: m, Gather: g}, nil
}

// Stats aggregates fleet-wide content accounting.
type Stats struct {
	Shards           int
	Lines            uint64
	RawBytes         uint64
	CompressedBytes  uint64
	DataPages        int
	IndexMemoryBytes int
	Segments         storage.SegmentStats
}

// Stats sums content accounting over all shards. Each shard is read in
// one consistent snapshot (core.Engine.ContentStats), in O(1).
func (r *Router) Stats() Stats {
	st := Stats{Shards: len(r.shards)}
	for _, sh := range r.shards {
		c := sh.eng.ContentStats()
		st.Lines += c.Lines
		st.RawBytes += c.RawBytes
		st.CompressedBytes += c.CompressedBytes
		st.DataPages += c.DataPages
		st.IndexMemoryBytes += c.IndexMemoryBytes
		st.Segments.Sealed += c.Segments.Sealed
		st.Segments.Active += c.Segments.Active
		st.Segments.SealedPages += c.Segments.SealedPages
		st.Segments.ActivePages += c.Segments.ActivePages
	}
	return st
}

// RawBytes is the fleet's ingested raw bytes: Stats().RawBytes without
// the other counters, one read lock per shard.
func (r *Router) RawBytes() uint64 {
	var n uint64
	for _, sh := range r.shards {
		n += sh.eng.RawBytes()
	}
	return n
}
