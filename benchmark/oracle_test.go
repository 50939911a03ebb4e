package main

import (
	"testing"

	"mithrilog"
)

func TestPrefixBoundCoversOnlyTheRacedWindow(t *testing.T) {
	// 10 matches in the base data; three ingest batches adding 2, 0 and 3.
	p := newPrefixBound(10, []int{2, 0, 3})
	cases := []struct {
		acked, sent int
		lo, hi      int
	}{
		{0, 0, 10, 10}, // nothing written yet: exact
		{1, 1, 12, 12}, // the writer's own query: exact
		{1, 3, 12, 15}, // one acknowledged, two more possibly visible
		{3, 3, 15, 15},
	}
	for _, c := range cases {
		lo, hi := p.bounds(c.acked, c.sent)
		if lo != c.lo || hi != c.hi {
			t.Errorf("bounds(acked %d, sent %d) = %d..%d, want %d..%d", c.acked, c.sent, lo, hi, c.lo, c.hi)
		}
	}
}

func TestTokenOracleAgreesWithQueryMatch(t *testing.T) {
	ds, _ := generate(1500, 5)
	got, err := tokenOracle(scanExprs, ds.Lines)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for i, expr := range scanExprs {
		q, err := mithrilog.ParseQuery(expr)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		want := 0
		for _, line := range ds.Lines {
			if q.Match(string(line)) {
				want++
			}
		}
		if got[i] != want {
			t.Errorf("%q: oracle counts %d, Query.Match counts %d", expr, got[i], want)
		}
		if want > 0 {
			nonzero++
		}
	}
	if nonzero < len(scanExprs)-1 {
		t.Errorf("only %d of %d expressions match anything in 1,500 lines; the suite no longer fits the generator", nonzero, len(scanExprs))
	}
}

func TestRegexOracleCountsWithGoRegexp(t *testing.T) {
	lines := [][]byte{
		[]byte("a connection refused from ladmin3 x"),
		[]byte("generating core.123"),
		[]byte("connection refused from"), // no leading space: the bounded pattern misses it
	}
	got, err := regexOracle([]string{regexPrefiltered[0], regexFallback}, lines)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 1 {
		t.Errorf("regexOracle = %v, want [1 1]", got)
	}
	if _, err := regexOracle([]string{"("}, lines); err == nil {
		t.Error("a malformed pattern must be an error, not a zero count")
	}
}

func TestFleetOracleGate(t *testing.T) {
	base, _ := generate(400, 9)
	tenant, _ := generate(2*fleetBatchLines, 10)
	o, err := newFleetOracle(base.Lines, tenant.Lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.batches) != 2 {
		t.Fatalf("%d ingest batches, want 2", len(o.batches))
	}
	heavy := 3 // `kernel:` at limit 100
	lo, hi := o.bounds[heavy].bounds(1, 2)
	if lo <= fleetLimit || hi < lo {
		t.Fatalf("match-heavy request admits %d..%d; the test needs more than %d matches", lo, hi, fleetLimit)
	}
	ok := fleetResponse{Matches: lo, Lines: make([]string, fleetLimit), ShardsQueried: 4}
	if err := o.check(heavy, ok, 1, 2); err != nil {
		t.Errorf("a count on the lower bound must pass: %v", err)
	}
	for name, bad := range map[string]fleetResponse{
		"below the acknowledged prefix": {Matches: lo - 1, Lines: make([]string, fleetLimit)},
		"above the sent prefix":         {Matches: hi + 1, Lines: make([]string, fleetLimit)},
		"limit not applied":             {Matches: lo, Lines: make([]string, fleetLimit+1)},
		"partial":                       {Matches: lo, Lines: make([]string, fleetLimit), Partial: true},
	} {
		if err := o.check(heavy, bad, 1, 2); err == nil {
			t.Errorf("%s: the gate let it through", name)
		}
	}
	routed := len(fleetRound) - 1
	tlo, _ := o.tenant[routed].bounds(2, 2)
	_, fhi := o.bounds[routed].bounds(2, 2)
	lines := func(n int) []string {
		if n > fleetLimit {
			n = fleetLimit
		}
		return make([]string, n)
	}
	if err := o.check(routed, fleetResponse{Matches: tlo, Lines: lines(tlo), ShardsQueried: 1}, 2, 2); err != nil {
		t.Errorf("tenant-routed count equal to the tenant's own lines must pass: %v", err)
	}
	if err := o.check(routed, fleetResponse{Matches: fhi, Lines: lines(fhi), ShardsQueried: 4}, 2, 2); err == nil {
		t.Error("a tenant-routed query that scattered to 4 shards must fail")
	}
	if err := o.check(routed, fleetResponse{Matches: fhi + 1, Lines: lines(fhi + 1), ShardsQueried: 1}, 2, 2); err == nil {
		t.Error("a tenant-routed count above the fleet-wide bound must fail")
	}
}
