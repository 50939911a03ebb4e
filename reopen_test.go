package mithrilog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mithrilog/internal/storage"
)

// rangeModel is the reference for time-range queries: every accepted line
// in ingest order, and for each Snapshot its time and how many lines came
// before it.
type rangeModel struct {
	lines  []string
	bounds []rangeBound
}

type rangeBound struct {
	at    time.Time
	lines int
}

// before is the line count of the newest boundary not after ts, or 0 if
// there is none.
func (m *rangeModel) before(ts time.Time) int {
	n := 0
	for _, b := range m.bounds {
		if !b.at.After(ts) {
			n = b.lines
		}
	}
	return n
}

// window returns the lines a search bounded by opts' From/To reads.
func (m *rangeModel) window(opts SearchOptions) []string {
	lo, hi := 0, len(m.lines)
	if !opts.From.IsZero() {
		lo = m.before(opts.From)
	}
	if !opts.To.IsZero() {
		hi = m.before(opts.To)
	}
	if lo >= hi {
		return nil
	}
	return m.lines[lo:hi]
}

// TestTimeRangesSurviveReopen takes two Snapshots between three ingests,
// round-trips the engine through WriteSegments → Reopen, and ingests
// again. At every stage each From, To and From+To search must return the
// lines the model's window holds, and the reopened engine must answer as
// the one that wrote the stream.
func TestTimeRangesSurviveReopen(t *testing.T) {
	t0 := time.Date(2021, 10, 18, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(time.Hour)
	var times []time.Time
	for _, d := range []time.Duration{-time.Minute, 0, 30 * time.Minute, time.Hour, 2 * time.Hour} {
		times = append(times, t0.Add(d))
	}
	var ranges []SearchOptions
	for i, a := range times {
		ranges = append(ranges, SearchOptions{From: a}, SearchOptions{To: a})
		for _, b := range times[i+1:] {
			ranges = append(ranges, SearchOptions{From: a, To: b}, SearchOptions{From: b, To: a})
		}
	}
	exprs := []string{"failed", "heartbeat OR retry"}

	for _, cfg := range []Config{{}, {Shards: 4}} {
		t.Run(fmt.Sprintf("shards=%d", max(cfg.Shards, 1)), func(t *testing.T) {
			var m rangeModel
			eng := Open(cfg)
			ingest := func(owner string, seed int) {
				t.Helper()
				lines := seqLines(owner, 300, seed)
				if err := eng.IngestLines(lines); err != nil {
					t.Fatal(err)
				}
				m.lines = append(m.lines, lines...)
			}
			snapshot := func(at time.Time) {
				t.Helper()
				if err := eng.Snapshot(at); err != nil {
					t.Fatal(err)
				}
				m.bounds = append(m.bounds, rangeBound{at, len(m.lines)})
			}
			// answers runs every ranged query against eng and the model.
			answers := func(stage string) []Result {
				t.Helper()
				var out []Result
				for _, expr := range exprs {
					q := MustParseQuery(expr)
					for _, r := range ranges {
						r.CollectLines = true
						res, err := eng.Search(expr, r)
						if err != nil {
							t.Fatalf("%s: %q from=%v to=%v: %v", stage, expr, r.From, r.To, err)
						}
						var want []string
						for _, l := range m.window(r) {
							if q.q.Match(l) {
								want = append(want, l)
							}
						}
						got, want := sortedStrings(res.Lines), sortedStrings(want)
						if res.Matches != len(want) || !equalLines(got, want) {
							t.Errorf("%s: %q from=%v to=%v: %d matches, model %d (first diff: %s)",
								stage, expr, r.From, r.To, res.Matches, len(want), firstDiff(got, want))
						}
						out = append(out, res)
					}
				}
				return out
			}

			ingest("svc", 0)
			snapshot(t0)
			ingest("acme", 1)
			snapshot(t1)
			ingest("svc", 2)
			before := answers("before reopen")

			var buf bytes.Buffer
			if err := eng.WriteSegments(&buf); err != nil {
				t.Fatal(err)
			}
			re, err := Reopen(cfg, &buf)
			if err != nil {
				t.Fatal(err)
			}
			eng = re
			for i, res := range answers("after reopen") {
				if res.Matches != before[i].Matches || !equalLines(sortedStrings(res.Lines), sortedStrings(before[i].Lines)) {
					t.Errorf("after reopen: query %d answers %d matches, the writing engine %d", i, res.Matches, before[i].Matches)
				}
			}
			ingest("globex", 3)
			answers("after reopen and ingest")
		})
	}
}

// TestTornStreamIsRejected cuts a stream of a few KiB at every byte
// offset, and flips one seeded bit at every byte offset, at widths 1 and
// 4. Reopen, under Config{} and under the writer's config, must reject
// each damaged stream with storage.ErrSegmentCorrupt and never panic; the
// intact stream must reopen to exactly the accepted lines.
func TestTornStreamIsRejected(t *testing.T) {
	for _, writer := range []Config{{}, {Shards: 4}} {
		t.Run(fmt.Sprintf("shards=%d", max(writer.Shards, 1)), func(t *testing.T) {
			eng := Open(writer)
			lines := append(seqLines("svc", 60, 1), seqLines("acme", 60, 2)...)
			if err := eng.IngestLines(lines[:60]); err != nil {
				t.Fatal(err)
			}
			if err := eng.Snapshot(time.Unix(1_700_000_000, 0)); err != nil {
				t.Fatal(err)
			}
			if err := eng.IngestLines(lines[60:]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := eng.WriteSegments(&buf); err != nil {
				t.Fatal(err)
			}
			stream := buf.Bytes()
			t.Logf("stream of %d bytes", len(stream))
			configs := []Config{{}, writer}

			for _, cfg := range configs {
				re, err := Reopen(cfg, bytes.NewReader(stream))
				if err != nil {
					t.Fatalf("intact stream under %+v: %v", cfg, err)
				}
				var out bytes.Buffer
				if _, err := re.Export(&out); err != nil {
					t.Fatal(err)
				}
				// One shard keeps ingest order; a fleet exports shard by shard.
				got, want := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"), lines
				if writer.Shards > 1 {
					got, want = sortedStrings(got), sortedStrings(want)
				}
				if !equalLines(got, want) {
					t.Fatalf("intact stream under %+v reopens to other lines (first diff: %s)", cfg, firstDiff(got, want))
				}
			}

			reject := func(what string, b []byte) {
				t.Helper()
				for _, cfg := range configs {
					func() {
						defer func() {
							if p := recover(); p != nil {
								t.Fatalf("%s, reopened under %+v: panic: %v", what, cfg, p)
							}
						}()
						if _, err := Reopen(cfg, bytes.NewReader(b)); !errors.Is(err, storage.ErrSegmentCorrupt) {
							t.Fatalf("%s, reopened under %+v: err %v, want ErrSegmentCorrupt", what, cfg, err)
						}
					}()
				}
			}
			rng := rand.New(rand.NewSource(32))
			for off := range stream {
				reject(fmt.Sprintf("stream of %d bytes cut at %d", len(stream), off), stream[:off])
				mut := bytes.Clone(stream)
				bit := rng.Intn(8)
				mut[off] ^= 1 << bit
				reject(fmt.Sprintf("bit %d flipped at byte %d of %d", bit, off, len(stream)), mut)
			}
		})
	}
}
