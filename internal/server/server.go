// Package server exposes a MithriLog engine over HTTP with a small JSON
// API, turning the library into the long-running log analytics service
// the paper's deployment story implies (logs stream in continuously;
// queries arrive from operators and detection pipelines).
//
// Endpoints:
//
//	POST /ingest    newline-separated log text in the body [?tenant=name]
//	POST /flush     force buffered lines into storage pages
//	POST /snapshot  record a time boundary (RFC 3339 "time" form value)
//	GET  /search    q=<expr> [limit=N] [noindex=1] [from=RFC3339] [to=RFC3339] [tenant=name]
//	GET  /grep      e=<regex> [limit=N] [tenant=name]
//	GET  /trace     q=<expr> [same params as /search] — search + span tree
//	GET  /stats     engine statistics
//	GET  /metrics   Prometheus text exposition (see OBSERVABILITY.md)
//	GET  /healthz   liveness probe
//
// Every endpoint is instrumented: per-endpoint request counters (by
// status code), latency histograms, and an in-flight gauge are registered
// into the engine's metrics registry, so /metrics reports the HTTP layer
// alongside the engine, storage, accelerator, scheduler, and page-cache
// series.
//
// limit (default 100) is pushed down into the page scan: the response
// carries the limit smallest matching lines in canonical byte order — the
// same lines whatever the shard count — while matches counts every
// matching line. limit=0 asks for the count alone.
//
// Search-shaped endpoints (/search, /trace, /grep) run through the
// engine's admission-controlled scheduler: a full admission queue or an
// exhausted per-tenant quota maps to 429 Too Many Requests, an expired
// per-query deadline to 504 Gateway Timeout, and a client hang-up cancels
// the scan between pages.
//
// On a sharded engine (Config.Shards > 1) the tenant parameter routes:
// tenant-tagged ingest lands on the tenant's home shard, a tenant query
// touches only that shard, and untenanted queries scatter-gather across
// the fleet. A scatter in which some — not all — shards fail still
// returns 200, with partial=true and the failed shards listed, so
// callers can distinguish a complete answer from a degraded one. The
// /metrics exposition federates the router and every shard (series
// labeled shard="<i>").
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mithrilog"
	"mithrilog/internal/obs"
)

// Server is the HTTP facade over one engine.
type Server struct {
	eng *mithrilog.Engine
	mux *http.ServeMux

	ingested atomic.Uint64
	queries  atomic.Uint64

	requests *obs.CounterVec   // endpoint, code
	latency  *obs.HistogramVec // endpoint
	inflight *obs.Gauge
}

// New wraps an engine. The engine is safe for the concurrent requests an
// HTTP server delivers.
func New(eng *mithrilog.Engine) *Server {
	reg := eng.Obs()
	s := &Server{
		eng: eng,
		mux: http.NewServeMux(),
		requests: reg.CounterVec("mithrilog_http_requests_total",
			"HTTP requests served, by endpoint and status code.",
			"endpoint", "code"),
		latency: reg.HistogramVec("mithrilog_http_request_seconds",
			"HTTP request latency by endpoint.",
			obs.DurationBuckets(), "endpoint"),
		inflight: reg.Gauge("mithrilog_http_in_flight_requests",
			"Requests currently being served."),
	}
	s.handle("/ingest", s.handleIngest)
	s.handle("/flush", s.handleFlush)
	s.handle("/snapshot", s.handleSnapshot)
	s.handle("/search", s.handleSearch)
	s.handle("/grep", s.handleGrep)
	s.handle("/trace", s.handleTrace)
	s.handle("/stats", s.handleStats)
	// MetricsHandler, not reg: on a sharded engine the exposition is the
	// federated view (router + every shard), of which reg is one member.
	s.handle("/metrics", eng.MetricsHandler().ServeHTTP)
	s.handle("/healthz", s.handleHealth)
	return s
}

// handle registers an instrumented handler: in-flight gauge, per-endpoint
// request counter (by status code), and latency histogram.
func (s *Server) handle(endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(endpoint, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Inc()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.inflight.Dec()
		s.requests.WithLabelValues(endpoint, strconv.Itoa(sw.code)).Inc()
		s.latency.WithLabelValues(endpoint).ObserveSince(start)
	})
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// ingestResponse reports an ingest call. A batch holding an oversize line
// is rejected whole with 413; Error is set then and Lines counts the
// request's lines ingested by the batches before it.
type ingestResponse struct {
	Lines         int    `json:"lines"`
	TotalIngested uint64 `json:"totalIngested"`
	Error         string `json:"error,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// The tenant must come from the URL: FormValue would try to parse the
	// body, which here is raw log text, not a form.
	tenant := r.URL.Query().Get("tenant")
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var batch [][]byte
	n := 0 // lines of this request ingested so far
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := s.eng.IngestTenant(tenant, batch); err != nil {
			return err
		}
		n += len(batch)
		s.ingested.Add(uint64(len(batch)))
		batch = batch[:0]
		return nil
	}
	fail := func(err error) {
		if errors.Is(err, mithrilog.ErrLineTooLong) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ingestResponse{
				Lines: n, TotalIngested: s.ingested.Load(), Error: fmt.Sprintf("ingest: %v", err),
			})
			return
		}
		writeErr(w, http.StatusInternalServerError, "ingest: %v", err)
	}
	for sc.Scan() {
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		batch = append(batch, line)
		if len(batch) == 4096 {
			if err := flush(); err != nil {
				fail(err)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if err := flush(); err != nil {
		fail(err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Lines: n, TotalIngested: s.ingested.Load()})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.eng.Flush(); err != nil {
		writeErr(w, http.StatusInternalServerError, "flush: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ts := time.Now()
	if v := r.FormValue("time"); v != "" {
		parsed, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad time: %v", err)
			return
		}
		ts = parsed
	}
	if err := s.eng.Snapshot(ts); err != nil {
		writeErr(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"time": ts.Format(time.RFC3339)})
}

// searchResponse reports a query. The shard fields appear only from a
// sharded engine: partial=true flags a scatter that lost some (not all)
// shards, with the failures enumerated.
type searchResponse struct {
	Matches        int                      `json:"matches"`
	Lines          []string                 `json:"lines,omitempty"`
	Offloaded      bool                     `json:"offloaded"`
	UsedIndex      bool                     `json:"usedIndex"`
	CandidatePages int                      `json:"candidatePages"`
	TotalPages     int                      `json:"totalPages"`
	CachedPages    int                      `json:"cachedPages"`
	SimElapsedNs   int64                    `json:"simElapsedNs"`
	QueueNs        int64                    `json:"queueNs"`
	WallElapsedNs  int64                    `json:"wallElapsedNs"`
	EffectiveGBps  float64                  `json:"effectiveGBps"`
	Partial        bool                     `json:"partial,omitempty"`
	FailedShards   []mithrilog.ShardFailure `json:"failedShards,omitempty"`
	ShardsQueried  int                      `json:"shardsQueried,omitempty"`
	EmptyShards    int                      `json:"emptyShards,omitempty"`
}

// searchStatus maps a search error to its HTTP status: admission
// rejections — a full queue or an exhausted tenant quota — are
// backpressure (429), deadline expiries are timeouts (504), everything
// else is a caller error.
func searchStatus(err error) int {
	switch {
	case errors.Is(err, mithrilog.ErrQueueFull), errors.Is(err, mithrilog.ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// parseLimit parses the limit parameter /search, /trace and /grep share:
// the cap on returned lines (default 100; 0 asks for counts only), which
// the engine applies inside the scan. On a malformed value the 400 has
// already been written to w.
func parseLimit(w http.ResponseWriter, r *http.Request) (limit int, ok bool) {
	v := r.FormValue("limit")
	if v == "" {
		return 100, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		writeErr(w, http.StatusBadRequest, "bad limit %q", v)
		return 0, false
	}
	return n, true
}

// searchParams parses the query parameters shared by /search and /trace.
// When ok is false the error has already been written to w.
func searchParams(w http.ResponseWriter, r *http.Request) (expr string, opts mithrilog.SearchOptions, ok bool) {
	expr = r.FormValue("q")
	if expr == "" {
		writeErr(w, http.StatusBadRequest, "missing q parameter")
		return "", opts, false
	}
	if opts.Limit, ok = parseLimit(w, r); !ok {
		return "", opts, false
	}
	opts.CollectLines = opts.Limit > 0
	opts.NoIndex = r.FormValue("noindex") == "1"
	opts.Tenant = r.FormValue("tenant")
	// A hung-up client cancels the scan between pages.
	opts.Context = r.Context()
	for name, dst := range map[string]*time.Time{"from": &opts.From, "to": &opts.To} {
		if v := r.FormValue(name); v != "" {
			parsed, err := time.Parse(time.RFC3339, v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "bad %s: %v", name, err)
				return "", opts, false
			}
			*dst = parsed
		}
	}
	return expr, opts, true
}

func toSearchResponse(res mithrilog.Result) searchResponse {
	return searchResponse{
		Matches:        res.Matches,
		Lines:          res.Lines,
		Offloaded:      res.Offloaded,
		UsedIndex:      res.UsedIndex,
		CandidatePages: res.CandidatePages,
		TotalPages:     res.TotalPages,
		CachedPages:    res.CachedPages,
		SimElapsedNs:   res.SimElapsed.Nanoseconds(),
		QueueNs:        res.Breakdown.Queue.Nanoseconds(),
		WallElapsedNs:  res.WallElapsed.Nanoseconds(),
		EffectiveGBps:  res.EffectiveGBps,
		Partial:        res.Partial,
		FailedShards:   res.FailedShards,
		ShardsQueried:  res.ShardsQueried,
		EmptyShards:    res.EmptyShards,
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	expr, opts, ok := searchParams(w, r)
	if !ok {
		return
	}
	res, err := s.eng.Search(expr, opts)
	if err != nil {
		writeErr(w, searchStatus(err), "search: %v", err)
		return
	}
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, toSearchResponse(res))
}

// traceResponse reports a traced query: the usual search result plus the
// span tree of its execution stages.
type traceResponse struct {
	Result searchResponse `json:"result"`
	Trace  obs.SpanData   `json:"trace"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	expr, opts, ok := searchParams(w, r)
	if !ok {
		return
	}
	res, trace, err := s.eng.TraceSearch(expr, opts)
	if err != nil {
		writeErr(w, searchStatus(err), "trace: %v", err)
		return
	}
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, traceResponse{
		Result: toSearchResponse(res),
		Trace:  trace,
	})
}

// grepResponse is a searchResponse plus the regex prefilter outcome:
// whether the literal-factor index prefilter applied, and how many data
// pages it proved non-matching without reading.
type grepResponse struct {
	searchResponse
	Prefilter    bool `json:"prefilter"`
	PagesSkipped int  `json:"pagesSkipped"`
}

func (s *Server) handleGrep(w http.ResponseWriter, r *http.Request) {
	pattern := r.FormValue("e")
	if pattern == "" {
		writeErr(w, http.StatusBadRequest, "missing e parameter")
		return
	}
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	opts := mithrilog.RegexOptions{
		CollectLines: limit > 0,
		Limit:        limit,
		NoPrefilter:  r.FormValue("noprefilter") != "",
	}
	res, err := s.eng.SearchRegexOpts(r.Context(), r.FormValue("tenant"), pattern, opts)
	if err != nil {
		writeErr(w, searchStatus(err), "grep: %v", err)
		return
	}
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, grepResponse{
		searchResponse: searchResponse{
			Matches:        res.Matches,
			Lines:          res.Lines,
			UsedIndex:      res.Prefiltered,
			CandidatePages: res.CandidatePages,
			TotalPages:     res.TotalPages,
			CachedPages:    res.CachedPages,
			SimElapsedNs:   res.SimElapsed.Nanoseconds(),
			WallElapsedNs:  res.WallElapsed.Nanoseconds(),
			Partial:        res.Partial,
			FailedShards:   res.FailedShards,
			ShardsQueried:  res.ShardsQueried,
			EmptyShards:    res.EmptyShards,
		},
		Prefilter:    res.Prefiltered,
		PagesSkipped: res.TotalPages - res.CandidatePages,
	})
}

// statsResponse reports engine state (summed across shards when sharded).
type statsResponse struct {
	Lines            uint64  `json:"lines"`
	RawBytes         uint64  `json:"rawBytes"`
	CompressedBytes  uint64  `json:"compressedBytes"`
	CompressionRatio float64 `json:"compressionRatio"`
	DataPages        int     `json:"dataPages"`
	IndexMemoryBytes int     `json:"indexMemoryBytes"`
	QueriesServed    uint64  `json:"queriesServed"`
	Shards           int     `json:"shards"`
	SealedSegments   int     `json:"sealedSegments"`
	ActiveSegments   int     `json:"activeSegments"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		Lines:            st.Lines,
		RawBytes:         st.RawBytes,
		CompressedBytes:  st.CompressedBytes,
		CompressionRatio: st.CompressionRatio,
		DataPages:        st.DataPages,
		IndexMemoryBytes: st.IndexMemoryBytes,
		QueriesServed:    s.queries.Load(),
		Shards:           st.Shards,
		SealedSegments:   st.SealedSegments,
		ActiveSegments:   st.ActiveSegments,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
