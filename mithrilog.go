// Package mithrilog is a software reproduction of MithriLog, the
// near-storage log analytics accelerator from "MithriLog: Near-Storage
// Accelerator for High-Performance Log Analytics" (MICRO 2021).
//
// The package exposes the paper's system as a Go library: an Engine that
// ingests unstructured log lines into LZAH-compressed pages on a
// simulated SSD with an in-storage inverted index, and answers boolean
// token queries — unions of intersections of possibly negated tokens —
// through bit-faithful models of the hardware filter pipelines. Results
// carry both the functional output (matching lines) and the simulated
// platform timing from which the paper's performance figures derive.
//
// Quick start:
//
//	eng := mithrilog.Open(mithrilog.Config{})
//	_ = eng.IngestLines([]string{"RAS KERNEL INFO instruction cache parity error corrected"})
//	res, _ := eng.Search(`parity AND error AND NOT FATAL`, mithrilog.SearchOptions{CollectLines: true})
//	for _, line := range res.Lines {
//		fmt.Println(line)
//	}
package mithrilog

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"time"

	"mithrilog/internal/core"
	"mithrilog/internal/cuckoo"
	"mithrilog/internal/filter"
	"mithrilog/internal/hwsim"
	"mithrilog/internal/index"
	"mithrilog/internal/obs"
	"mithrilog/internal/query"
	"mithrilog/internal/router"
	"mithrilog/internal/sched"
	"mithrilog/internal/storage"
)

// ErrQueueFull reports a query rejected at admission: the concurrency
// limit was reached and the wait queue was already full. It signals
// backpressure (retry later), not a bad query.
var ErrQueueFull = sched.ErrQueueFull

// ErrTenantQuota reports a query rejected because its tenant already
// holds its full in-flight quota (sharded mode). Like ErrQueueFull it is
// backpressure, not failure.
var ErrTenantQuota = sched.ErrTenantQuota

// ErrClosed reports an operation on a closed engine.
var ErrClosed = router.ErrClosed

// ErrLineTooLong reports an ingest batch holding a line too long for one
// data page. The batch is rejected whole: none of its lines is ingested.
var ErrLineTooLong = core.ErrLineTooLong

// Config selects the engine's hardware model and index geometry. The zero
// value reproduces the paper's prototype: four 16-byte pipelines at
// 200 MHz, a 256-row/8-set cuckoo table per hash filter, a 16 KiB LZAH
// hash table, a 65536-bucket index with 16×16 trees, and a 4.8/3.1 GB/s
// internal/external storage device.
type Config struct {
	// Pipelines overrides the number of filter pipelines (default 4).
	Pipelines int
	// HashTableRows overrides the cuckoo table rows (default 256).
	HashTableRows int
	// IntersectionSets overrides the flag pairs per entry, bounding the
	// number of intersection sets per offloaded query (default 8).
	IntersectionSets int
	// IndexBuckets overrides the inverted index bucket count (default 65536).
	IndexBuckets int
	// InternalBandwidth / ExternalBandwidth override the simulated device
	// links, in bytes per second (defaults 4.8e9 / 3.1e9).
	InternalBandwidth, ExternalBandwidth float64

	// MaxInFlight bounds the queries executing concurrently; further
	// arrivals wait in a bounded queue (default 8).
	MaxInFlight int
	// QueueDepth bounds the queries waiting for an execution slot beyond
	// MaxInFlight; arrivals past the bound fail fast with ErrQueueFull
	// (default 64).
	QueueDepth int
	// QueryTimeout is the per-query deadline, covering queue wait and
	// execution; a timed-out query aborts between page scans with
	// context.DeadlineExceeded. Zero disables it.
	QueryTimeout time.Duration
	// CacheBytes sizes the decompressed-page cache: accelerator-side DRAM
	// holding decompressed data pages with the spans of their tokens,
	// shared across queries, so repeated scans of hot pages skip the flash
	// read, the LZAH decompression, and the tokenization (e.g. 64 << 20
	// for 64 MiB; a cached page costs about 2.3 bytes per byte of raw
	// text, all of it counted against the bound). Zero disables caching.
	CacheBytes int64

	// Shards is the number of independent engines — each with its own
	// simulated SSD, accelerator complex, scheduler, and page cache —
	// behind the scatter-gather router; 0 or 1 means one engine.
	// Tenant-tagged ingest (IngestTenant) lands on the tenant's home
	// shard; untenanted ingest is striped round-robin. Queries for a
	// tenant go to one shard; untenanted queries scatter to all shards
	// and, on two or more, merge in canonical order.
	Shards int
	// TenantInFlight bounds concurrent queries per tenant in sharded mode,
	// in front of the per-shard schedulers; excess arrivals fail fast with
	// ErrTenantQuota (default 4). Ignored when Shards <= 1: one engine has
	// no tenant quota.
	TenantInFlight int
	// ShardTimeout bounds each shard's portion of a scatter-gather query;
	// a late shard is reported in Result.FailedShards while the rest of
	// the fleet still answers. Zero leaves only QueryTimeout and the
	// caller's context. Ignored when Shards <= 1.
	ShardTimeout time.Duration
}

func (c Config) toRouter() router.Config {
	return router.Config{
		Shards: c.Shards,
		Engine: core.Config{
			Storage: storage.Config{
				InternalBandwidth: c.InternalBandwidth,
				ExternalBandwidth: c.ExternalBandwidth,
			},
			System: hwsim.SystemConfig{
				Pipelines:  c.Pipelines,
				InternalBW: c.InternalBandwidth,
				ExternalBW: c.ExternalBandwidth,
			},
			Pipeline: filter.PipelineConfig{
				Table: cuckoo.Config{Rows: c.HashTableRows, Sets: c.IntersectionSets},
			},
			Index: index.Params{Buckets: c.IndexBuckets},
		},
		Sched: sched.Config{
			MaxInFlight: c.MaxInFlight,
			QueueDepth:  c.QueueDepth,
			Timeout:     c.QueryTimeout,
		},
		CacheBytes:     c.CacheBytes,
		TenantInFlight: c.TenantInFlight,
		ShardTimeout:   c.ShardTimeout,
	}
}

// Engine is a MithriLog instance: N ≥ 1 engines — each a simulated
// near-storage device, index, and accelerator pipelines, fronted by a
// concurrent query scheduler with a decompressed-page cache — behind the
// scatter-gather router. Config{} opens one engine; Config.Shards > 1
// opens a fleet, which adds tenant-aware placement and partial-result
// reporting to the same methods.
type Engine struct {
	router *router.Router
}

// Open creates an empty engine (or, with cfg.Shards > 1, a sharded fleet).
func Open(cfg Config) *Engine {
	r, err := router.New(cfg.toRouter())
	if err != nil {
		// toRouter never sets the fields router.New validates; an error
		// here is a facade bug, not a user input.
		panic(err)
	}
	return &Engine{router: r}
}

// fromRouter wraps a router built from a stream.
func fromRouter(r *router.Router, err error) (*Engine, error) {
	if err != nil {
		return nil, err
	}
	return &Engine{router: r}, nil
}

// Close waits for in-flight operations to drain and flushes every shard,
// at every width. After it, ingest, Flush, Snapshot, every search,
// WriteSegments and Export fail with ErrClosed; the single-engine passes
// SearchBatch and Tag do not check. Close is idempotent.
func (e *Engine) Close() error {
	return e.router.Close()
}

// Shards reports the fleet width: 1 for Config{}.
func (e *Engine) Shards() int {
	return e.router.NumShards()
}

// TenantLimiter exposes a sharded engine's per-tenant admission layer
// for operational introspection (and for tests that pin quota behavior
// deterministically). Nil on a single engine, which has no tenant
// quotas.
func (e *Engine) TenantLimiter() *sched.TenantLimiter {
	return e.router.Limiter()
}

// IngestLines appends log lines (strings without trailing newlines).
func (e *Engine) IngestLines(lines []string) error {
	bs := make([][]byte, len(lines))
	for i, l := range lines {
		bs[i] = []byte(l)
	}
	return e.router.Ingest("", bs)
}

// IngestBytes appends log lines given as byte slices.
func (e *Engine) IngestBytes(lines [][]byte) error {
	return e.router.Ingest("", lines)
}

// IngestTenant appends lines owned by a tenant. On a sharded engine the
// tenant name decides placement — all of a tenant's lines land on its
// home shard, so the tenant's queries touch one shard — but never alters
// the line bytes. On a single engine tenancy is a no-op (there is one
// shard) and the call is identical to IngestBytes.
func (e *Engine) IngestTenant(tenant string, lines [][]byte) error {
	return e.router.Ingest(tenant, lines)
}

// IngestReader streams newline-separated log text into the engine.
func (e *Engine) IngestReader(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var batch [][]byte
	for sc.Scan() {
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		batch = append(batch, line)
		if len(batch) == 4096 {
			if err := e.router.Ingest("", batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return e.router.Ingest("", batch)
}

// Flush forces buffered lines into storage pages and flushes the index
// (on every shard, when sharded).
func (e *Engine) Flush() error {
	return e.router.Flush()
}

// Snapshot records a time boundary for Range queries (§6.3).
// WriteSegments persists the boundaries, so they survive Reopen.
func (e *Engine) Snapshot(ts time.Time) error {
	return e.router.Snapshot(ts)
}

// SearchOptions tune a search; see the fields for the paper experiment
// each maps to.
type SearchOptions struct {
	// CollectLines materializes matching lines in the result.
	CollectLines bool
	// Limit > 0 returns only the Limit smallest matching lines in
	// canonical byte order — the same lines at every fleet width — and the
	// engine copies no more than it needs to find them. Matches still
	// counts every matching line. Limit ≤ 0 returns every matching line:
	// in page (ingest) order on a single engine, canonical order on a
	// sharded one.
	Limit int
	// NoIndex bypasses the inverted index and scans every page (the
	// §7.4.2 filter-isolation configuration).
	NoIndex bool
	// From/To restrict the search to the snapshot-bounded time range.
	From, To time.Time
	// Context, when non-nil, cancels the query between page scans (e.g.
	// an HTTP client hanging up). The scheduler layers the configured
	// QueryTimeout on top. Nil means no caller-side cancellation.
	Context context.Context
	// Tenant routes the query, on a sharded engine, to the tenant's home
	// shard only; empty scatters to every shard. A single engine ignores
	// it (all data lives together).
	Tenant string
}

// Result reports a search: functional output plus simulated timing.
type Result struct {
	// Matches is the number of lines satisfying the query.
	Matches int
	// Lines holds the matching lines when CollectLines was set (see
	// SearchOptions.Limit for how many and in what order).
	Lines []string
	// Offloaded reports whether the accelerator path ran (false = the
	// query could not be cuckoo-compiled and host software evaluated it).
	Offloaded bool
	// UsedIndex reports whether the inverted index pruned candidate pages.
	UsedIndex bool
	// CandidatePages / TotalPages describe index selectivity.
	CandidatePages, TotalPages int
	// CachedPages counts candidate pages served from the decompressed-page
	// cache, paying neither the flash read nor the decompression.
	CachedPages int
	// SimElapsed is the simulated query time on the modeled platform,
	// including time queued behind other in-flight queries for the filter
	// pipelines.
	SimElapsed time.Duration
	// Breakdown decomposes SimElapsed into its simulated components.
	Breakdown TimingBreakdown
	// WallElapsed is the host wall-clock time of the simulation.
	WallElapsed time.Duration
	// EffectiveGBps is the §7.4.2 metric: dataset size / simulated time.
	EffectiveGBps float64

	// Partial reports a sharded query in which at least one shard failed
	// (timeout, local queue full, device error) while others answered;
	// FailedShards lists the failures. A query only errors when every
	// queried shard fails. Always false on a single engine.
	Partial      bool
	FailedShards []ShardFailure
	// ShardsQueried is the scatter width (1 on a single engine or a
	// tenant-routed query); EmptyShards counts shards with nothing
	// ingested, which are not failures.
	ShardsQueried int
	EmptyShards   int
}

// ShardFailure identifies one failed shard inside a partial Result.
type ShardFailure struct {
	Shard int    `json:"shard"`
	Error string `json:"error"`
}

// TimingBreakdown decomposes a simulated query time: index traversal,
// page streaming, filter compute (overlapping the stream; the slower
// binds), host return traffic, and — when other queries were in flight —
// the time spent queued for the shared filter pipelines. On a sharded
// engine the shards scan in parallel, so Index/Stream/Filter/Return are
// those of the shard whose simulated time bound the query, and Queue is
// the worst queue share any answering shard reported.
type TimingBreakdown struct {
	Index, Stream, Filter, Return, Queue time.Duration
}

// Search parses and executes a boolean token query. The query language
// supports AND/OR/NOT, parentheses, quoted tokens, implicit AND between
// adjacent tokens, and token@N column constraints:
//
//	failed AND NOT pbs_mom:
//	(RAS AND KERNEL AND NOT FATAL) OR (ciod: AND error)
func (e *Engine) Search(expr string, opts SearchOptions) (Result, error) {
	parseStart := time.Now()
	q, err := query.Parse(expr)
	e.router.ObserveParseTime(opts.Tenant, time.Since(parseStart))
	if err != nil {
		return Result{}, err
	}
	return e.run(q, opts, nil)
}

// TraceSearch runs Search while recording a span tree of the query's
// stages (parse → index probe → configure → page scan), each annotated
// with its counts and simulated timings. A query scattered over a fleet
// records only the parse span, with the fleet shape annotated on the
// root. The returned tree is JSON-ready; the HTTP server exposes it at
// GET /trace. On a parse error the tree holds only the failed parse span.
func (e *Engine) TraceSearch(expr string, opts SearchOptions) (Result, obs.SpanData, error) {
	root := obs.StartSpan("search")
	parseStart := time.Now()
	parseSpan := root.StartChild("parse")
	q, err := query.Parse(expr)
	parseSpan.End()
	e.router.ObserveParseTime(opts.Tenant, time.Since(parseStart))
	if err != nil {
		parseSpan.SetAttr("error", err.Error())
		root.End()
		return Result{}, root.Snapshot(), err
	}
	res, err := e.run(q, opts, root)
	root.End()
	return res, root.Snapshot(), err
}

// SearchQuery executes an already-built Query (e.g. a template query or a
// batch combined with Or).
func (e *Engine) SearchQuery(q Query, opts SearchOptions) (Result, error) {
	return e.run(q.q, opts, nil)
}

func (e *Engine) run(q query.Query, opts SearchOptions, trace *obs.Span) (Result, error) {
	// The facade is the context boundary: a query arriving without a
	// context gets Background here and nowhere below (ctxflow, LINT.md).
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := e.router.Search(ctx, opts.Tenant, q, core.SearchOptions{
		NoIndex:      opts.NoIndex,
		CollectLines: opts.CollectLines,
		Limit:        opts.Limit,
		From:         opts.From,
		To:           opts.To,
		Trace:        trace,
	})
	if err != nil {
		return Result{}, err
	}
	return toResult(res, e.router.RawBytes(), opts.CollectLines), nil
}

// toResult translates the router's merged result into the facade Result;
// rawBytes is the dataset size EffectiveGBps is against.
func toResult(res router.Result, rawBytes uint64, collect bool) Result {
	out := Result{
		Matches:        res.Matches,
		Offloaded:      res.Offloaded,
		UsedIndex:      res.UsedIndex,
		CandidatePages: res.CandidatePages,
		TotalPages:     res.TotalPages,
		CachedPages:    res.CachedPages,
		SimElapsed:     res.SimElapsed,
		Breakdown: TimingBreakdown{
			Index:  res.IndexTime,
			Stream: res.StreamTime,
			Filter: res.FilterTime,
			Return: res.ReturnTime,
			Queue:  res.QueueTime,
		},
		WallElapsed:   res.WallElapsed,
		EffectiveGBps: res.EffectiveThroughput(rawBytes) / 1e9,
		Partial:       res.Partial,
		FailedShards:  shardFailures(res.Gather),
		ShardsQueried: res.ShardsQueried,
		EmptyShards:   res.EmptyShards,
	}
	if collect {
		out.Lines = lineStrings(res.Lines)
	}
	return out
}

func shardFailures(g router.Gather) []ShardFailure {
	var out []ShardFailure
	for _, f := range g.Failed {
		out = append(out, ShardFailure{Shard: f.Shard, Error: f.Err.Error()})
	}
	return out
}

func lineStrings(lines [][]byte) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	return out
}

// Stats summarizes engine contents.
type Stats struct {
	// Lines ingested.
	Lines uint64
	// RawBytes / CompressedBytes of ingested data.
	RawBytes, CompressedBytes uint64
	// CompressionRatio is RawBytes/CompressedBytes.
	CompressionRatio float64
	// DataPages written to the device.
	DataPages int
	// IndexMemoryBytes is the inverted index's resident footprint.
	IndexMemoryBytes int
	// Shards is the fleet width (1 for a single engine).
	Shards int
	// SealedSegments / ActiveSegments count append-only segments across
	// the fleet, by seal state (sealed segments are immutable).
	SealedSegments, ActiveSegments int
}

// Obs returns the engine's metrics registry. Every engine carries one:
// ingest, search-stage, storage-link, and accelerator-model series are
// maintained permanently at one atomic op per event. In-module consumers
// (the HTTP server) register additional metrics into it; external callers
// serve it via MetricsHandler. It is the router's registry (scatter
// metrics, and on a fleet the tenant quota's); a single engine's series
// live in it too, while a fleet's per-shard series appear only in the
// federated MetricsHandler view.
func (e *Engine) Obs() *obs.Registry {
	return e.router.Obs()
}

// MetricsHandler returns an http.Handler serving the engine's metrics in
// Prometheus text exposition format (see OBSERVABILITY.md for the metric
// reference). On a sharded engine the exposition federates the router's
// registry with every shard's, each shard's series labeled shard="<i>".
func (e *Engine) MetricsHandler() http.Handler {
	return e.router.Federation()
}

// Stats reports the engine's current contents (summed across shards on a
// sharded engine).
func (e *Engine) Stats() Stats {
	st := e.router.Stats()
	out := Stats{
		Lines:            st.Lines,
		RawBytes:         st.RawBytes,
		CompressedBytes:  st.CompressedBytes,
		DataPages:        st.DataPages,
		IndexMemoryBytes: st.IndexMemoryBytes,
		Shards:           st.Shards,
		SealedSegments:   st.Segments.Sealed,
		ActiveSegments:   st.Segments.Active,
	}
	if st.CompressedBytes > 0 {
		out.CompressionRatio = float64(st.RawBytes) / float64(st.CompressedBytes)
	}
	return out
}

// RegexResult reports a regular-expression scan (a §8 extension: regexes
// are beyond the token engine, so the accelerator forwards pages and the
// host matches in software — the trade-off §7.4.3 quantifies). When the
// pattern has required literal factors, the engine probes them through
// the inverted index first and only verifies the candidate pages
// (Prefiltered true); otherwise it falls back to the full scan.
type RegexResult struct {
	// Matches is the number of matching lines.
	Matches int
	// Lines holds the matching lines when CollectLines was requested (see
	// RegexOptions.Limit).
	Lines []string
	// Prefiltered reports whether every shard answered via the
	// literal-factor index prefilter; false means at least one shard
	// (or the whole query) fell back to a full scan.
	Prefiltered bool
	// TotalPages is the number of data pages the query could have
	// scanned; CandidatePages is how many survived the index prefilter
	// (equal to TotalPages on fallback). TotalPages−CandidatePages pages
	// were proven non-matching without being read.
	TotalPages     int
	CandidatePages int
	// CachedPages counts scanned pages served from the decompressed-page
	// cache instead of flash.
	CachedPages int
	// SimElapsed is the simulated scan time on the modeled platform.
	SimElapsed time.Duration
	// WallElapsed is the host wall-clock time of the simulation.
	WallElapsed time.Duration
	// Partial / FailedShards / ShardsQueried / EmptyShards mirror the
	// sharded-search fields on Result; always zero on a single engine.
	Partial       bool
	FailedShards  []ShardFailure
	ShardsQueried int
	EmptyShards   int
}

// RegexOptions tunes a facade regex scan.
type RegexOptions struct {
	// CollectLines returns the matching lines, not just the count.
	CollectLines bool
	// Limit bounds the returned lines exactly as SearchOptions.Limit does.
	Limit int
	// NoPrefilter disables the literal-factor index prefilter and forces
	// the full scan, mainly for differential testing and measurement.
	NoPrefilter bool
}

// SearchRegex scans lines against a regular expression (see internal/rex
// for the supported syntax: literals, '.', classes, escapes, grouping,
// alternation, *, +, ?, and ^/$ anchors). When the pattern has required
// literal factors the scan is prefiltered through the inverted index;
// otherwise it degrades to a full scan.
func (e *Engine) SearchRegex(pattern string, collectLines bool) (RegexResult, error) {
	return e.SearchRegexContext(context.Background(), pattern, collectLines)
}

// SearchRegexContext is SearchRegex under a caller context: the scan still
// runs through the scheduler's admission control, and ctx (plus the
// configured QueryTimeout) bounds the time spent waiting for a slot.
func (e *Engine) SearchRegexContext(ctx context.Context, pattern string, collectLines bool) (RegexResult, error) {
	return e.SearchRegexTenant(ctx, "", pattern, collectLines)
}

// SearchRegexTenant is SearchRegexContext with tenant routing: on a
// sharded engine a named tenant's scan goes to its home shard only, and
// the empty tenant scatters everywhere with the same partial-failure
// semantics as Search.
func (e *Engine) SearchRegexTenant(ctx context.Context, tenant, pattern string, collectLines bool) (RegexResult, error) {
	return e.SearchRegexOpts(ctx, tenant, pattern, RegexOptions{CollectLines: collectLines})
}

// SearchRegexOpts is SearchRegexTenant with the full option set, including
// the NoPrefilter escape hatch used by differential tests.
func (e *Engine) SearchRegexOpts(ctx context.Context, tenant, pattern string, opts RegexOptions) (RegexResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := e.router.SearchRegex(ctx, tenant, pattern, core.RegexOptions{
		CollectLines: opts.CollectLines,
		Limit:        opts.Limit,
		NoPrefilter:  opts.NoPrefilter,
	})
	if err != nil {
		return RegexResult{}, err
	}
	out := RegexResult{
		Matches:        res.Matches,
		Prefiltered:    res.Prefiltered,
		TotalPages:     res.TotalPages,
		CandidatePages: res.CandidatePages,
		CachedPages:    res.CachedPages,
		SimElapsed:     res.SimElapsed,
		WallElapsed:    res.WallElapsed,
		Partial:        res.Partial,
		FailedShards:   shardFailures(res.Gather),
		ShardsQueried:  res.ShardsQueried,
		EmptyShards:    res.EmptyShards,
	}
	if opts.CollectLines {
		out.Lines = lineStrings(res.Lines)
	}
	return out, nil
}
