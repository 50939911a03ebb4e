package mithrilog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"mithrilog/internal/core"
	"mithrilog/internal/query"
)

// This file is the facade sequence oracle: one deterministic program of
// facade operations runs against a single engine (Config{}), a one-shard
// fleet (Config{Shards: 1}) and a four-shard fleet, each with and without
// the page cache, and against a model — the accepted lines as a []string,
// the line count at each snapshot for From/To ranges, token queries
// through query.Match and regexes through Go regexp. After
// every step each configuration must agree with the model: the same
// errors.Is sentinel (or none), the same match count, the same line
// multiset. A width-1 engine must also return unlimited lines in ingest
// order, and every width must return limited lines as the canonical
// prefix.

type seqKind int

const (
	seqIngest seqKind = iota // IngestLines, or IngestTenant when tenant is set
	seqFlush
	seqSnapshot
	seqSearch
	seqRegex
	seqReopen // WriteSegments → Reopen; the reopened engine runs the rest
	seqExport
	seqClose
)

var seqKindNames = [...]string{"ingest", "flush", "snapshot", "search", "regex", "reopen", "export", "close"}

type seqStep struct {
	kind   seqKind
	tenant string
	lines  []string      // seqIngest
	expr   string        // seqSearch: a token query; seqRegex: a pattern
	search SearchOptions // seqSearch (Tenant comes from tenant)
	regex  RegexOptions  // seqRegex
	ts     time.Time     // seqSnapshot; zero means seqT0
}

// The program's two snapshot times, and the From and To of its ranged
// searches: From falls between the snapshots, To is the second one.
var (
	seqT0   = time.Unix(1_700_000_000, 0)
	seqT1   = seqT0.Add(time.Hour)
	seqFrom = seqT0.Add(30 * time.Minute)
	seqTo   = seqT1
)

// at is a snapshot step's time.
func (s seqStep) at() time.Time {
	if s.ts.IsZero() {
		return seqT0
	}
	return s.ts
}

func (s seqStep) String() string {
	out := seqKindNames[s.kind]
	switch s.kind {
	case seqIngest:
		out += fmt.Sprintf(" %d lines", len(s.lines))
	case seqSearch:
		out += fmt.Sprintf(" %q collect=%v limit=%d noindex=%v", s.expr, s.search.CollectLines, s.search.Limit, s.search.NoIndex)
		if !s.search.From.IsZero() {
			out += " from=" + s.search.From.Format(time.TimeOnly)
		}
		if !s.search.To.IsZero() {
			out += " to=" + s.search.To.Format(time.TimeOnly)
		}
	case seqSnapshot:
		out += " at " + s.at().Format(time.TimeOnly)
	case seqRegex:
		out += fmt.Sprintf(" %q collect=%v limit=%d noprefilter=%v", s.expr, s.regex.CollectLines, s.regex.Limit, s.regex.NoPrefilter)
	}
	if s.tenant != "" {
		out += " tenant=" + s.tenant
	}
	return out
}

// seqOut is what one step observably returns.
type seqOut struct {
	err     error
	matches int
	lines   []string // search/regex lines when collected; the export's lines
	collect bool     // lines are part of the answer
}

// seqModel is the reference: every accepted line in ingest order, and the
// line count at each snapshot (rangeModel).
type seqModel struct {
	rangeModel
	closed bool
}

// seqMaxLine is the longest line a data page holds with room to spare;
// the program's one oversize line is far past it.
const seqMaxLine = 3500

func (m *seqModel) apply(s seqStep) seqOut {
	if m.closed {
		return seqOut{err: ErrClosed}
	}
	switch s.kind {
	case seqIngest:
		for _, l := range s.lines {
			if len(l) > seqMaxLine {
				return seqOut{err: ErrLineTooLong}
			}
		}
		m.lines = append(m.lines, s.lines...)
	case seqSnapshot:
		m.bounds = append(m.bounds, rangeBound{s.at(), len(m.lines)})
	case seqSearch:
		q, err := query.Parse(s.expr)
		if err != nil {
			panic(err)
		}
		return m.answer(m.window(s.search), func(l string) bool { return q.Match(l) }, s.search.CollectLines, s.search.Limit)
	case seqRegex:
		re := regexp.MustCompile(s.expr)
		return m.answer(m.lines, re.MatchString, s.regex.CollectLines, s.regex.Limit)
	case seqExport:
		return seqOut{lines: append([]string(nil), m.lines...), collect: true}
	case seqClose:
		m.closed = true
	}
	return seqOut{}
}

// answer is a query's model result over lines, the accepted lines in its
// time range: the matching ones in ingest order, or the limit smallest in
// byte order.
func (m *seqModel) answer(lines []string, match func(string) bool, collect bool, limit int) seqOut {
	if len(m.lines) == 0 {
		return seqOut{err: core.ErrNothingIngested}
	}
	var hits []string
	for _, l := range lines {
		if match(l) {
			hits = append(hits, l)
		}
	}
	out := seqOut{matches: len(hits), collect: collect}
	if collect {
		out.lines = hits
		if limit > 0 {
			out.lines = sortedStrings(hits)[:min(limit, len(hits))]
		}
	}
	return out
}

// seqRun applies one step to an engine. A reopen replaces *e.
func seqRun(t *testing.T, cfg Config, e **Engine, s seqStep) seqOut {
	t.Helper()
	eng := *e
	switch s.kind {
	case seqIngest:
		if s.tenant == "" {
			return seqOut{err: eng.IngestLines(s.lines)}
		}
		bs := make([][]byte, len(s.lines))
		for i, l := range s.lines {
			bs[i] = []byte(l)
		}
		return seqOut{err: eng.IngestTenant(s.tenant, bs)}
	case seqFlush:
		return seqOut{err: eng.Flush()}
	case seqSnapshot:
		return seqOut{err: eng.Snapshot(s.at())}
	case seqSearch:
		opts := s.search
		opts.Tenant = s.tenant
		res, err := eng.Search(s.expr, opts)
		return seqOut{err: err, matches: res.Matches, lines: res.Lines, collect: opts.CollectLines}
	case seqRegex:
		res, err := eng.SearchRegexOpts(context.Background(), s.tenant, s.expr, s.regex)
		return seqOut{err: err, matches: res.Matches, lines: res.Lines, collect: s.regex.CollectLines}
	case seqReopen:
		var buf bytes.Buffer
		if err := eng.WriteSegments(&buf); err != nil {
			return seqOut{err: err}
		}
		re, err := Reopen(cfg, &buf)
		if err != nil {
			return seqOut{err: err}
		}
		*e = re
		return seqOut{}
	case seqExport:
		var buf bytes.Buffer
		n, err := eng.Export(&buf)
		if err == nil && n != uint64(buf.Len()) {
			t.Errorf("%s: Export reports %d bytes, wrote %d", s, n, buf.Len())
		}
		text := strings.TrimSuffix(buf.String(), "\n")
		var lines []string
		if text != "" {
			lines = strings.Split(text, "\n")
		}
		return seqOut{err: err, lines: lines, collect: true}
	case seqClose:
		return seqOut{err: eng.Close()}
	}
	panic("unknown step")
}

// seqErrKind names the sentinel an error matches under errors.Is.
func seqErrKind(err error) string {
	if err == nil {
		return "ok"
	}
	for _, s := range []struct {
		name string
		err  error
	}{
		{"ErrClosed", ErrClosed},
		{"ErrSharded", ErrSharded},
		{"ErrLineTooLong", ErrLineTooLong},
		{"ErrNothingIngested", core.ErrNothingIngested},
		{"ErrQueueFull", ErrQueueFull},
		{"ErrTenantQuota", ErrTenantQuota},
	} {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return "unexpected error " + err.Error()
}

// seqLines is a deterministic batch. Every line starts with its owner's
// name, so a tenant's queries name the tenant to select its lines at
// every width (routing is placement, not filtering). Every tenth line is
// the same, so multisets hold duplicates.
func seqLines(owner string, n, seed int) []string {
	words := []string{"started", "failed", "done", "retry", "error", "done"}
	out := make([]string, n)
	for i := range out {
		if i%10 == 0 {
			out[i] = owner + " heartbeat ok"
			continue
		}
		k := i*7 + seed
		out[i] = fmt.Sprintf("%s node%02d job=%d %s code=%d", owner, k%23, i+seed, words[k%len(words)], k%5)
	}
	return out
}

// seqQueries expands each query into its option variants.
func seqQueries(tenant string, exprs, patterns []string) []seqStep {
	var out []seqStep
	for _, expr := range exprs {
		for _, o := range []SearchOptions{
			{},
			{CollectLines: true},
			{CollectLines: true, Limit: 5},
			{CollectLines: true, NoIndex: true},
			{CollectLines: true, NoIndex: true, Limit: 3},
			{CollectLines: true, From: seqFrom},
			{CollectLines: true, To: seqTo},
			{CollectLines: true, From: seqFrom, To: seqTo},
		} {
			out = append(out, seqStep{kind: seqSearch, tenant: tenant, expr: expr, search: o})
		}
	}
	for _, p := range patterns {
		for _, o := range []RegexOptions{
			{},
			{CollectLines: true},
			{CollectLines: true, Limit: 4},
			{CollectLines: true, NoPrefilter: true},
			{CollectLines: true, NoPrefilter: true, Limit: 2},
		} {
			out = append(out, seqStep{kind: seqRegex, tenant: tenant, expr: p, regex: o})
		}
	}
	return out
}

// seqProgram is the op table. Tenant queries run only once the tenant
// holds lines, so a four-shard fleet's home shard is never empty when
// the model is not.
func seqProgram() []seqStep {
	exprs := []string{"failed", "error OR retry", "node03 AND NOT failed", "code=1 AND done", "heartbeat"}
	patterns := []string{`failed code=[0-9]`, `job=1[0-9]* (done|retry)`, `(error|failed) code=4$`, `^svc node0[0-9] `}
	tooLong := "svc " + strings.Repeat("x", 4000)

	var p []seqStep
	step := func(s ...seqStep) { p = append(p, s...) }
	step(seqQueries("", []string{"failed"}, []string{`failed code=[0-9]`})...)
	step(seqStep{kind: seqIngest, lines: seqLines("svc", 200, 0)})
	step(seqQueries("", exprs, patterns)...)
	step(seqStep{kind: seqIngest, tenant: "acme", lines: seqLines("acme", 60, 3)},
		seqStep{kind: seqIngest, tenant: "globex", lines: seqLines("globex", 50, 5)},
		seqStep{kind: seqFlush},
		seqStep{kind: seqSnapshot})
	step(seqQueries("", exprs, patterns)...)
	step(seqQueries("acme", []string{"acme AND failed", "acme AND (done OR retry)"}, []string{`^acme node1[0-9] `})...)
	step(seqQueries("globex", []string{"globex"}, []string{`^globex .*code=2`})...)
	step(seqStep{kind: seqIngest, lines: append(seqLines("svc", 30, 11), tooLong)},
		seqStep{kind: seqIngest, tenant: "acme", lines: []string{"acme ok", tooLong}},
		seqStep{kind: seqSnapshot, ts: seqT1},
		seqStep{kind: seqIngest, lines: seqLines("svc", 150, 13)},
		seqStep{kind: seqExport})
	step(seqQueries("", exprs, nil)...)
	step(seqStep{kind: seqReopen})
	step(seqQueries("", exprs, patterns)...)
	step(seqQueries("acme", []string{"acme AND failed"}, nil)...)
	step(seqStep{kind: seqIngest, tenant: "acme", lines: seqLines("acme", 40, 17)})
	step(seqQueries("acme", []string{"acme AND failed"}, []string{`^acme node1[0-9] `})...)
	step(seqQueries("", []string{"heartbeat", "failed"}, nil)...)
	step(seqStep{kind: seqExport},
		seqStep{kind: seqReopen},
		seqStep{kind: seqIngest, lines: seqLines("svc", 20, 19)})
	step(seqQueries("", []string{"heartbeat", "failed"}, nil)...)
	step(seqStep{kind: seqClose})
	// After Close, every operation refuses with ErrClosed at every width.
	step(seqStep{kind: seqIngest, lines: seqLines("svc", 5, 23)},
		seqStep{kind: seqIngest, tenant: "acme", lines: seqLines("acme", 5, 23)},
		seqStep{kind: seqFlush},
		seqStep{kind: seqSnapshot},
		seqStep{kind: seqSearch, expr: "failed", search: SearchOptions{CollectLines: true}},
		seqStep{kind: seqSearch, tenant: "acme", expr: "acme"},
		seqStep{kind: seqRegex, expr: `failed`},
		seqStep{kind: seqExport},
		seqStep{kind: seqReopen})
	return p
}

// TestFacadeSequenceWidths runs seqProgram against every configuration
// and the model, checking each step's answer as it goes.
func TestFacadeSequenceWidths(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"Config{}", Config{}},
		{"Shards:1", Config{Shards: 1}},
		{"Shards:4", Config{Shards: 4}},
		{"Config{}+cache", Config{CacheBytes: 1 << 20}},
		{"Shards:1+cache", Config{Shards: 1, CacheBytes: 1 << 20}},
		{"Shards:4+cache", Config{Shards: 4, CacheBytes: 1 << 20}},
	}
	engines := make([]*Engine, len(configs))
	for i, c := range configs {
		engines[i] = Open(c.cfg)
	}
	var m seqModel
	for si, s := range seqProgram() {
		want := m.apply(s)
		for ci, c := range configs {
			width1 := c.cfg.Shards <= 1
			got := seqRun(t, c.cfg, &engines[ci], s)
			at := fmt.Sprintf("step %d (%s) on %s", si, s, c.name)
			if g, w := seqErrKind(got.err), seqErrKind(want.err); g != w {
				t.Errorf("%s: %s, model %s", at, g, w)
				continue
			}
			if got.err != nil {
				continue
			}
			if got.matches != want.matches {
				t.Errorf("%s: %d matches, model %d", at, got.matches, want.matches)
			}
			if want.collect {
				// Limited lines are the canonical prefix at every width;
				// unlimited ones keep ingest order on one shard.
				ordered := width1 || s.search.Limit > 0 || s.regex.Limit > 0
				g, w := got.lines, want.lines
				if !ordered {
					g, w = sortedStrings(g), sortedStrings(w)
				}
				if !equalLines(g, w) {
					t.Errorf("%s: lines diverge (ordered=%v, first diff: %s)", at, ordered, firstDiff(g, w))
				}
			}
			switch s.kind {
			case seqFlush, seqReopen:
				if n := engines[ci].Stats().Lines; n != uint64(len(m.lines)) {
					t.Errorf("%s: Stats().Lines %d, model %d", at, n, len(m.lines))
				}
			}
			if s.kind == seqReopen {
				if n, w := engines[ci].Shards(), max(c.cfg.Shards, 1); n != w {
					t.Errorf("%s: reopened at width %d, want %d", at, n, w)
				}
			}
		}
	}
}
