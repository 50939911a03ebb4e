package lint

import "testing"

// TestEscapeKinds pins the per-parameter escape masks the v4 summary
// layer computes over the escape/a fixture: one function per kind, plus
// the bottom-up chase through helpers and the closure composite.
func TestEscapeKinds(t *testing.T) {
	_, prog, err := fixtures(t).LoadFixture("escape/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	ef := moduleEscapes(prog)

	cases := []struct {
		key  string
		arg  int
		want escapeKind
	}{
		{"escape/a.ret", 0, escReturn},
		{"escape/a.store", 0, escStore},
		{"escape/a.fieldStore", 0, 0}, // written through, never retained
		{"escape/a.fieldStore", 1, escStore},
		{"escape/a.insert", 0, escContainer},
		{"escape/a.sender", 0, escContainer},
		{"escape/a.sender", 1, 0}, // the channel itself stays put
		{"escape/a.literal", 0, escContainer},
		{"escape/a.spawn", 0, escGoroutine},
		// A callee outside the module proves nothing.
		{"escape/a.mystery", 0, 0},
		// chain has no escape syntax of its own: the kind arrives
		// bottom-up from store through the call graph.
		{"escape/a.chain", 0, escStore},
		{"escape/a.reads", 0, 0},
		// The returned literal both captures p (store) and returns it
		// from its own body (the documented over-approximation).
		{"escape/a.closure", 0, escStore | escReturn},
	}
	for _, tc := range cases {
		if got := ef.argEscape(tc.key, tc.arg); got != tc.want {
			t.Errorf("argEscape(%s, %d) = %v, want %v", tc.key, tc.arg, got, tc.want)
		}
	}

	// Unknown functions have no summary: zero mask, no panic.
	if got := ef.argEscape("escape/a.nosuch", 0); got != 0 {
		t.Errorf("argEscape on unknown key = %v, want 0", got)
	}
	// Argument indexes past the parameter list clamp to the variadic
	// tail slot instead of crashing.
	if got := ef.argEscape("escape/a.ret", 5); got != escReturn {
		t.Errorf("argEscape past the end = %v, want clamp to last param", got)
	}
}

// TestEscapeKindString covers the mask formatter used in diagnostics.
func TestEscapeKindString(t *testing.T) {
	cases := []struct {
		k    escapeKind
		want string
	}{
		{0, "none"},
		{escReturn, "return"},
		{escStore | escGoroutine, "store|goroutine"},
		{escAll, "return|store|container|goroutine"},
	}
	for _, tc := range cases {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("(%d).String() = %q, want %q", tc.k, got, tc.want)
		}
	}
}
