package lint

import (
	"go/types"
	"testing"
)

// loadCallGraphFixture loads callgraph/a and builds its call graph.
func loadCallGraphFixture(t *testing.T) (*Program, *callGraph) {
	t.Helper()
	_, prog, err := fixtures(t).LoadFixture("callgraph/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return prog, moduleCallGraph(prog)
}

func TestCallGraphEdges(t *testing.T) {
	_, cg := loadCallGraphFixture(t)

	hasEdge := func(caller, callee string) bool {
		for _, s := range cg.callees[caller] {
			if s.callee == callee {
				return true
			}
		}
		return false
	}
	edges := [][2]string{
		{"callgraph/a.Entry", "callgraph/a.ping"},
		{"callgraph/a.ping", "callgraph/a.pong"},
		{"callgraph/a.pong", "callgraph/a.ping"}, // mutual recursion
		{"(*callgraph/a.S).Locked", "(*callgraph/a.S).under"},
		{"(*callgraph/a.S).under", "(*callgraph/a.S).leaf"},
	}
	for _, e := range edges {
		if !hasEdge(e[0], e[1]) {
			t.Errorf("missing edge %s -> %s", e[0], e[1])
		}
	}
	// callers is the mirror of callees.
	for _, e := range edges {
		found := false
		for _, s := range cg.callers[e[1]] {
			if s.caller == e[0] {
				found = true
			}
		}
		if !found {
			t.Errorf("callers[%s] missing %s", e[1], e[0])
		}
	}
	// helper's value is taken (var handler = helper); ping is only called.
	if !cg.valueUsed["callgraph/a.helper"] {
		t.Errorf("helper assigned to a variable should be valueUsed")
	}
	if cg.valueUsed["callgraph/a.ping"] {
		t.Errorf("ping is only ever called; must not be valueUsed")
	}
	// keys are sorted and complete.
	for i := 1; i < len(cg.keys); i++ {
		if cg.keys[i-1] >= cg.keys[i] {
			t.Errorf("keys not sorted at %d: %q >= %q", i, cg.keys[i-1], cg.keys[i])
		}
	}
}

func TestSamePackageReachable(t *testing.T) {
	_, cg := loadCallGraphFixture(t)
	reach := cg.samePackageReachable([]string{"callgraph/a.Entry"})
	for _, key := range []string{"callgraph/a.Entry", "callgraph/a.ping", "callgraph/a.pong"} {
		if reach[key] != "callgraph/a.Entry" {
			t.Errorf("reach[%s] = %q, want attribution to Entry", key, reach[key])
		}
	}
	if _, ok := reach["callgraph/a.helper"]; ok {
		t.Errorf("helper is not reachable from Entry, yet attributed")
	}
}

// TestGuardedEntryFixpoint checks the entry-lock summary converges to
// the expected sets: entry points and the mutually recursive pair pinned
// to no locks, the lock-wrapped helper chain to the mutex — through one
// level of indirection, which takes more than one round to propagate.
func TestGuardedEntryFixpoint(t *testing.T) {
	prog, cg := loadCallGraphFixture(t)
	entry := guardedEntryFixpoint(prog, cg, map[*types.Var]guardSpec{})

	wantEmpty := []string{
		"callgraph/a.Entry",       // exported
		"callgraph/a.helper",      // valueUsed
		"(*callgraph/a.S).Locked", // exported
		"callgraph/a.ping",        // reached from Entry with nothing held
		"callgraph/a.pong",        // reached via the recursion
	}
	for _, key := range wantEmpty {
		e := entry[key]
		if e == nil {
			t.Fatalf("no entry set for %s", key)
		}
		if e.top || len(e.locks) != 0 {
			t.Errorf("entry[%s] = top=%v locks=%v, want empty set", key, e.top, e.locks)
		}
	}
	const lock = "callgraph/a.S.mu"
	for _, key := range []string{"(*callgraph/a.S).under", "(*callgraph/a.S).leaf"} {
		e := entry[key]
		if e == nil {
			t.Fatalf("no entry set for %s", key)
		}
		if e.top {
			t.Errorf("entry[%s] still TOP: fixpoint never constrained it", key)
			continue
		}
		if !e.holdsWrite(lock) {
			t.Errorf("entry[%s] does not hold %s write-mode; locks=%v", key, lock, e.locks)
		}
	}
}

// TestEscapeKinds pins the parameter-escape summary shardiso reads, over
// one function per escape shape in paramescape/a.
func TestEscapeKinds(t *testing.T) {
	_, prog, err := fixtures(t).LoadFixture("paramescape/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	pe := moduleParamEscapes(prog)

	cases := []struct {
		key  string
		arg  int
		want bool
	}{
		{"paramescape/a.ret", 0, true},
		{"paramescape/a.store", 0, true},
		{"paramescape/a.fieldStore", 0, false}, // written through, never retained
		{"paramescape/a.fieldStore", 1, true},
		{"paramescape/a.insert", 0, true},
		{"paramescape/a.sender", 0, true},
		{"paramescape/a.sender", 1, false}, // the channel itself stays put
		{"paramescape/a.literal", 0, true},
		{"paramescape/a.spawn", 0, true},
		// A callee outside the module proves nothing.
		{"paramescape/a.mystery", 0, false},
		// chain has no escape syntax of its own: the fact arrives
		// bottom-up from store through the call graph.
		{"paramescape/a.chain", 0, true},
		{"paramescape/a.reads", 0, false},
		{"paramescape/a.closure", 0, true},
		// Unknown functions have no summary: no escape, no panic.
		{"paramescape/a.nosuch", 0, false},
		// Argument indexes past the parameter list clamp to the
		// variadic tail slot instead of crashing.
		{"paramescape/a.ret", 5, true},
		{"paramescape/a.reads", 5, false},
	}
	for _, tc := range cases {
		if got := argEscapes(pe, tc.key, tc.arg); got != tc.want {
			t.Errorf("argEscapes(%s, %d) = %v, want %v", tc.key, tc.arg, got, tc.want)
		}
	}
}
