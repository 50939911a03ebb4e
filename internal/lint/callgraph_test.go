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
