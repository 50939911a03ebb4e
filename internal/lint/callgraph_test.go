package lint

import "testing"

// loadCallGraphFixture loads callgraph/a and builds its call graph.
func loadCallGraphFixture(t *testing.T) *callGraph {
	t.Helper()
	_, prog, err := fixtures(t).LoadFixture("callgraph/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return moduleCallGraph(prog)
}

func TestCallGraphEdges(t *testing.T) {
	cg := loadCallGraphFixture(t)

	hasEdge := func(caller, callee string) bool {
		for _, c := range cg.callees[caller] {
			if c == callee {
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
	// keys are sorted and complete.
	for i := 1; i < len(cg.keys); i++ {
		if cg.keys[i-1] >= cg.keys[i] {
			t.Errorf("keys not sorted at %d: %q >= %q", i, cg.keys[i-1], cg.keys[i])
		}
	}
}

func TestSamePackageReachable(t *testing.T) {
	cg := loadCallGraphFixture(t)
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
