package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"mithrilog"
	"mithrilog/internal/core"
	"mithrilog/internal/loggen"
	"mithrilog/internal/query"
	"mithrilog/internal/rex"
	"mithrilog/internal/router"
	"mithrilog/internal/sched"
	"mithrilog/internal/server"
)

const (
	fleetTenant     = "acme"
	fleetBatchLines = 64
	fleetFlushEvery = 4
	fleetLimit      = 100
	// fleetCacheBytes is each shard's page cache: room for its stripe of
	// the base data plus everything the tenant ingests during a run.
	fleetCacheBytes = 96 << 20
)

// fleetRequest is one read of a round.
type fleetRequest struct {
	name    string
	expr    string // token expression, or the pattern when grep is set
	grep    bool
	noIndex bool
	limit   int
	tenant  string
}

// fleetRound is the request list: three selective indexed searches, one
// match-heavy search whose result is cut to `limit` only after every match
// was materialised, one cached full scan, one prefiltered grep and one
// tenant-routed search.
var fleetRound = []fleetRequest{
	{name: "selective_and", expr: `session AND opened`, limit: fleetLimit},
	{name: "selective_and3", expr: `failed AND read AND prefix`, limit: fleetLimit},
	{name: "selective_or", expr: `NFS OR lustre`, limit: fleetLimit},
	{name: "match_heavy", expr: `kernel:`, limit: fleetLimit},
	{name: "cached_scan", expr: `error AND NOT kernel:`, noIndex: true, limit: 0},
	{name: "grep_prefiltered", expr: ` connection refused from `, grep: true, limit: fleetLimit},
	{name: "tenant_routed", expr: `pbs_mom:`, limit: fleetLimit, tenant: fleetTenant},
}

func (r fleetRequest) path() string {
	v := url.Values{}
	v.Set("limit", fmt.Sprint(r.limit))
	if r.tenant != "" {
		v.Set("tenant", r.tenant)
	}
	if r.grep {
		v.Set("e", r.expr)
		return "/grep?" + v.Encode()
	}
	v.Set("q", r.expr)
	if r.noIndex {
		v.Set("noindex", "1")
	}
	return "/search?" + v.Encode()
}

// fleetResponse is the part of /search and /grep responses the gate reads.
type fleetResponse struct {
	Matches       int      `json:"matches"`
	Lines         []string `json:"lines"`
	Partial       bool     `json:"partial"`
	ShardsQueried int      `json:"shardsQueried"`
}

// fleetOracle holds, per request of the round, the count over the base data
// and the cumulative counts over the tenant's ingest batches.
type fleetOracle struct {
	bounds  []prefixBound // per request, fleet-wide
	tenant  []prefixBound // per request, over the tenant's lines alone
	batches [][]byte      // ingest bodies, newline-joined
	lines   [][][]byte    // the same batches as lines
}

func newFleetOracle(base [][]byte, tenantLines [][]byte) (*fleetOracle, error) {
	count := func(lines [][]byte) ([]int, error) {
		out := make([]int, len(fleetRound))
		var exprs, patterns []string
		var exprAt, patternAt []int
		for i, r := range fleetRound {
			if r.grep {
				patterns, patternAt = append(patterns, r.expr), append(patternAt, i)
			} else {
				exprs, exprAt = append(exprs, r.expr), append(exprAt, i)
			}
		}
		tc, err := tokenOracle(exprs, lines)
		if err != nil {
			return nil, err
		}
		rc, err := regexOracle(patterns, lines)
		if err != nil {
			return nil, err
		}
		for k, i := range exprAt {
			out[i] = tc[k]
		}
		for k, i := range patternAt {
			out[i] = rc[k]
		}
		return out, nil
	}
	baseCounts, err := count(base)
	if err != nil {
		return nil, err
	}
	o := &fleetOracle{}
	perBatch := make([][]int, len(fleetRound))
	for lo := 0; lo+fleetBatchLines <= len(tenantLines); lo += fleetBatchLines {
		batch := tenantLines[lo : lo+fleetBatchLines]
		c, err := count(batch)
		if err != nil {
			return nil, err
		}
		for i := range fleetRound {
			perBatch[i] = append(perBatch[i], c[i])
		}
		o.lines = append(o.lines, batch)
		o.batches = append(o.batches, append(bytes.Join(batch, []byte{'\n'}), '\n'))
	}
	for i := range fleetRound {
		o.bounds = append(o.bounds, newPrefixBound(baseCounts[i], perBatch[i]))
		o.tenant = append(o.tenant, newPrefixBound(0, perBatch[i]))
	}
	return o, nil
}

// check is the correctness gate of one response: acked batches had been
// acknowledged when the request began, sent had been started when it ended.
func (o *fleetOracle) check(i int, resp fleetResponse, acked, sent int) error {
	r := fleetRound[i]
	if resp.Partial {
		return fmt.Errorf("%s: partial result", r.name)
	}
	lo, hi := o.bounds[i].bounds(acked, sent)
	if r.tenant != "" {
		// Tenancy is placement, not filtering: the home shard also holds
		// its stripe of the base data, so the count lies between the
		// tenant's own acknowledged lines and the fleet-wide bound.
		lo, _ = o.tenant[i].bounds(acked, sent)
		if resp.ShardsQueried != 1 {
			return fmt.Errorf("%s: tenant-routed query touched %d shards", r.name, resp.ShardsQueried)
		}
	}
	if resp.Matches < lo || resp.Matches > hi {
		return fmt.Errorf("%s: %d matches, oracle admits %d..%d (ingest batches acked %d, sent %d)", r.name, resp.Matches, lo, hi, acked, sent)
	}
	want := resp.Matches
	if want > r.limit {
		want = r.limit
	}
	if len(resp.Lines) != want {
		return fmt.Errorf("%s: %d lines returned for %d matches at limit %d", r.name, len(resp.Lines), resp.Matches, r.limit)
	}
	return nil
}

// fleetClient is one closed-loop HTTP caller.
type fleetClient struct {
	base     string
	hc       *http.Client
	requests atomic.Int64
	bytes    atomic.Int64
	non2xx   atomic.Int64
}

func newFleetClient(base string) *fleetClient {
	return &fleetClient{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c *fleetClient) do(method, path string, body []byte, into interface{}) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	c.requests.Add(1)
	c.bytes.Add(int64(len(data)))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.non2xx.Add(1)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if into == nil {
		return nil
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// fleetRun is a served fleet with its writer state.
type fleetRun struct {
	eng     *mithrilog.Engine
	oracle  *fleetOracle
	hs      *http.Server
	served  chan error
	clients []*fleetClient
	// sent and acked count the single writer's ingest batches: started and
	// acknowledged. Only client 0 writes.
	sent, acked atomic.Int64
	writes      int // client 0's rounds so far, for the flush cadence
}

func startFleet(eng *mithrilog.Engine, oracle *fleetOracle, clients int) (*fleetRun, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	f := &fleetRun{eng: eng, oracle: oracle, served: make(chan error, 1)}
	f.hs = &http.Server{Handler: server.New(eng)}
	go func() { f.served <- f.hs.Serve(ln) }()
	for i := 0; i < clients; i++ {
		f.clients = append(f.clients, newFleetClient("http://"+ln.Addr().String()))
	}
	return f, nil
}

// stop shuts the server down and waits for its goroutine.
func (f *fleetRun) stop() error {
	for _, c := range f.clients {
		c.hc.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// write is client 0's share of the write path before each of its rounds:
// one tenant-tagged ingest batch, and a fleet-wide flush every
// fleetFlushEvery-th round. It is inside the segment's wall time and the
// run's CPU time but is not part of the round's latency, so that both
// clients' rounds are the same seven reads.
func (f *fleetRun) write() error {
	k := int(f.sent.Load())
	if k >= len(f.oracle.batches) {
		return fmt.Errorf("ingest batches exhausted after %d", k)
	}
	f.sent.Add(1)
	if err := f.clients[0].do(http.MethodPost, "/ingest?tenant="+fleetTenant, f.oracle.batches[k], nil); err != nil {
		return err
	}
	f.acked.Add(1)
	f.writes++
	if f.writes%fleetFlushEvery == 0 {
		return f.clients[0].do(http.MethodPost, "/flush", nil, nil)
	}
	return nil
}

// round is one op: the seven reads, each checked against the oracle.
func (f *fleetRun) round(client int) (time.Duration, error) {
	c := f.clients[client]
	return timed(func() error {
		for i, r := range fleetRound {
			acked := int(f.acked.Load())
			var resp fleetResponse
			if err := c.do(http.MethodGet, r.path(), nil, &resp); err != nil {
				return err
			}
			if err := f.oracle.check(i, resp, acked, int(f.sent.Load())); err != nil {
				return err
			}
		}
		return nil
	})
}

func (f *fleetRun) loop(rc *runCtx) loop {
	return loop{
		clients: len(f.clients), segments: rc.segments, perSeg: rc.segOps,
		op: func(client, _, _ int) (time.Duration, error) {
			if client == 0 {
				if err := f.write(); err != nil {
					return 0, err
				}
			}
			return f.round(client)
		},
	}
}

func fleetConfig() mithrilog.Config {
	return mithrilog.Config{Shards: fleetShards, CacheBytes: fleetCacheBytes}
}

// fleetWarm fills every shard's cache with one full scan.
func fleetWarm(eng *mithrilog.Engine) error {
	_, err := eng.Search(fleetRound[4].expr, mithrilog.SearchOptions{NoIndex: true})
	return err
}

func fleetSetup(rc *runCtx, loops int) (*built, time.Duration, buildPhases, *fleetOracle, error) {
	// One ingest batch per round of client 0: the untimed pass and every
	// loop the invocation will run.
	batches := 1 + loops*rc.segments*rc.segOps
	tenant := loggen.Generate(loggen.Liberty2, batches*fleetBatchLines, rc.p.seed*2+2)
	oracle, err := newFleetOracle(rc.ds.Lines, tenant.Lines)
	if err != nil {
		return nil, 0, buildPhases{}, nil, err
	}
	b, setupTime, phases, err := setup(fleetConfig(), rc.ds.Lines, fleetWarm)
	return b, setupTime, phases, oracle, err
}

// warmRounds is the untimed pass: client 0 writes once, then every client
// runs the round once.
func (f *fleetRun) warmRounds() error {
	if err := f.write(); err != nil {
		return err
	}
	for c := range f.clients {
		if _, err := f.round(c); err != nil {
			return err
		}
	}
	return nil
}

// measureFleet is the timed run of http_fleet_mixed.
func measureFleet(rc *runCtx) (*outcome, error) {
	b, setupTime, _, oracle, err := fleetSetup(rc, 1)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(b.eng, oracle, rc.w.clients)
	if err != nil {
		return nil, err
	}
	if err := f.warmRounds(); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	l := f.loop(rc)
	st, err := l.run(nil)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return endToEndOutcome(st, setupTime, b.stats), nil
}

// layersFleet is the traced run of http_fleet_mixed.
func layersFleet(rc *runCtx) (*outcome, error) {
	b, _, phases, oracle, err := fleetSetup(rc, 2)
	if err != nil {
		return nil, err
	}
	eng := b.eng
	f, err := startFleet(eng, oracle, rc.w.clients)
	if err != nil {
		return nil, err
	}
	out, lm, tr, err := fleetLayers(rc, b, phases, f)
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return finishTrace(rc, tr, lm, out)
}

func fleetLayers(rc *runCtx, b *built, phases buildPhases, f *fleetRun) (*outcome, *layerMetrics, *tracer, error) {
	eng, oracle := f.eng, f.oracle
	if err := f.warmRounds(); err != nil {
		return nil, nil, nil, err
	}
	tr := newTracer()
	lm := newLayerMetrics(rc, b, phases)

	before := scrapeEngine(eng)
	out, err := ownLoops(func() loop { return f.loop(rc) }, tr, lm)
	if err != nil {
		return nil, nil, nil, err
	}
	lm.fromEngineDeltas(before, scrapeEngine(eng), out.attempted)
	var reqs, respBytes, non2xx int64
	for _, c := range f.clients {
		reqs += c.requests.Load()
		respBytes += c.bytes.Load()
		non2xx += c.non2xx.Load()
	}
	lm.set("server.response_bytes_per_req", ratio(float64(respBytes), float64(reqs)))
	if float64(non2xx) > lm.m["server.non_2xx"] {
		lm.set("server.non_2xx", float64(non2xx))
	}

	// A hand-assembled fleet over the same stream, brought to the served
	// engine's contents by replaying the acknowledged ingest batches, so
	// the router and the shards can be called directly. The fleet is
	// quiescent from here on: one caller, no writer.
	acked := int(f.acked.Load())
	rt, err := router.Reopen(router.Config{Shards: fleetShards, CacheBytes: fleetCacheBytes}, bytes.NewReader(b.stream))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reopen router: %w", err)
	}
	for k := 0; k < acked; k++ {
		if err := rt.Ingest(fleetTenant, oracle.lines[k]); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := rt.Flush(); err != nil {
		return nil, nil, nil, err
	}
	scheds := make([]*sched.Scheduler, rt.NumShards())
	for i := range scheds {
		scheds[i] = sched.New(rt.Shard(i), sched.Config{})
	}
	ctx := context.Background()
	var leaf leafTimes
	var mergedLines, merged int
	var indexed []query.Query
	c := f.clients[0]
	for i, r := range fleetRound {
		collect := r.limit > 0
		copts := core.SearchOptions{NoIndex: r.noIndex, CollectLines: collect}
		ropts := core.RegexOptions{CollectLines: collect}
		var q query.Query
		if !r.grep {
			if q, err = query.Parse(r.expr); err != nil {
				return nil, nil, nil, err
			}
		}
		// want is what every level must count: the oracle's exact count
		// for a scatter; for the tenant-routed request, whose count
		// depends on which base lines share the home shard, what the
		// served fleet itself answered within the oracle's bounds.
		want, _ := oracle.bounds[i].bounds(acked, acked)
		counted := func(level string, call func() (int, error)) func() error {
			return func() error {
				got, err := call()
				if err != nil {
					return fmt.Errorf("%s %s: %w", level, r.name, err)
				}
				if got != want {
					return fmt.Errorf("%s %s: %d matches, want %d", level, r.name, got, want)
				}
				return nil
			}
		}
		server := func() error {
			var resp fleetResponse
			if err := c.do(http.MethodGet, r.path(), nil, &resp); err != nil {
				return err
			}
			if r.tenant != "" {
				want = resp.Matches
			}
			return oracle.check(i, resp, acked, acked)
		}
		facade := counted("facade", func() (int, error) {
			if r.grep {
				res, err := eng.SearchRegexOpts(ctx, r.tenant, r.expr, mithrilog.RegexOptions{CollectLines: collect})
				return res.Matches, err
			}
			res, err := eng.Search(r.expr, mithrilog.SearchOptions{NoIndex: r.noIndex, CollectLines: collect, Tenant: r.tenant, Context: ctx})
			return res.Matches, err
		})
		routed := counted("router", func() (int, error) {
			if r.grep {
				res, err := rt.SearchRegex(ctx, r.tenant, r.expr, ropts)
				mergedLines = len(res.Lines)
				return res.Matches, err
			}
			res, err := rt.Search(ctx, r.tenant, q, copts)
			mergedLines = len(res.Lines)
			return res.Matches, err
		})
		targets := []int{rt.ShardFor(r.tenant)}
		if r.tenant == "" {
			targets = targets[:0]
			for s := 0; s < rt.NumShards(); s++ {
				targets = append(targets, s)
			}
		}
		// The shards one after the other, through a scheduler and then
		// bare. Each shard's scan already spreads over the cores, so their
		// sum is what the scatter costs this box.
		shards := func(viaSched bool) func() (int, error) {
			return func() (int, error) {
				sum := 0
				for _, s := range targets {
					var m int
					var err error
					switch {
					case r.grep && viaSched:
						var res core.RegexResult
						res, err = scheds[s].SearchRegex(ctx, r.expr, ropts)
						m = res.Matches
					case r.grep:
						var res core.RegexResult
						res, err = rt.Shard(s).SearchRegexOpts(r.expr, ropts)
						m = res.Matches
					case viaSched:
						var res core.SearchResult
						res, err = scheds[s].Search(ctx, q, copts)
						m = res.Matches
					default:
						var res core.SearchResult
						res, err = rt.Shard(s).Search(q, copts)
						m = res.Matches
					}
					if err != nil && !errors.Is(err, core.ErrNothingIngested) {
						return 0, fmt.Errorf("shard %d: %w", s, err)
					}
					sum += m
				}
				return sum, nil
			}
		}
		idC, err := tr.descend(i, []entry{
			{"server", server}, {"facade", facade}, {"router", routed},
			{"sched", counted("sched", shards(true))}, {"core", counted("core", shards(false))},
		})
		if err != nil {
			return nil, nil, nil, err
		}
		merged += mergedLines
		out.attempted += 5

		// Leaf replay of the ops whose candidate pages the shard's index
		// names; full scans have no page list reachable from outside a
		// shard and are left to scan_cold and scan_warm.
		if r.noIndex {
			continue
		}
		fq := q
		var re *rex.Regexp
		if r.grep {
			if re, err = rex.Compile(r.expr); err != nil {
				return nil, nil, nil, err
			}
			fq = factorQuery(rex.LiteralFactors(r.expr))
		}
		replayed := false
		for _, s := range targets {
			shard := rt.Shard(s)
			pages, full, lookup, lookups, err := planPages(shard, fq)
			if err != nil {
				return nil, nil, nil, err
			}
			if full {
				continue
			}
			lt, err := replayBest(func() (leafTimes, error) {
				return replayScan(tr, idC, i, shard.Device(), nil, pages, &fq, re, false)
			})
			if err != nil {
				return nil, nil, nil, err
			}
			lt.lookup, lt.lookups = lookup, lookups
			leaf.add(lt)
			replayed = true
		}
		if replayed {
			indexed = append(indexed, fq)
		}
	}
	server, facade, routerT := tr.perOp("server"), tr.perOp("facade"), tr.perOp("router")
	schedT, coreT := tr.perOp("sched"), tr.perOp("core")
	n := float64(len(fleetRound))
	lm.set("server.self_ms_per_req", ms(selfTime(server, facade)))
	// An op is a round of n requests; spans are per request.
	lm.set("facade.self_us_per_op", us(selfTime(facade, routerT))*n)
	lm.set("router.self_ms_per_op", ms(selfTime(routerT, schedT))*n)
	lm.set("sched.self_us_per_op", us(selfTime(schedT, coreT))*n)
	lm.set("router.merged_lines_per_op", float64(merged))
	lm.fromLeaf(leaf)
	accounted := selfTime(server, facade) + selfTime(facade, routerT) + selfTime(routerT, schedT) + selfTime(schedT, coreT) + coreT
	rec := ratio(float64(accounted), float64(server))
	lm.set("trace.reconcile_ratio", rec)
	out.notef("reconcile (per request): server %.2f ms vs server self %.3f + facade self %.3f + router self %.3f + sched self %.3f + shards one by one %.2f ms; ratio %.3f",
		ms(server), ms(selfTime(server, facade)), ms(selfTime(facade, routerT)), ms(selfTime(routerT, schedT)), ms(selfTime(schedT, coreT)), ms(coreT), rec)

	// Micro-measurements on the tenant's home shard, over the pages its
	// index names for the first replayed query.
	home := rt.Shard(rt.ShardFor(fleetTenant))
	sample, _, _, _, err := planPages(home, indexed[0])
	if err != nil {
		return nil, nil, nil, err
	}
	if len(sample) == 0 {
		return nil, nil, nil, fmt.Errorf("the home shard's index names no page for %s", indexed[0])
	}
	if err := lm.micro(home.Device(), home.Index(), sample, indexed); err != nil {
		return nil, nil, nil, err
	}
	if err := rt.Close(); err != nil {
		return nil, nil, nil, err
	}
	return out, lm, tr, nil
}
