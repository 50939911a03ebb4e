// Package a is the call-graph unit-test fixture: direct edges, mutual
// recursion, a function no call reaches, and a method chain. It is
// inspected by callgraph_test.go rather than through `want` markers — the
// assertions are about graph structure, not diagnostics.
package a

import "sync"

func Entry() { ping(3) }

func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) { ping(n) }

var handler = helper

func helper() {}

// S's methods form a chain: Locked calls under, which calls leaf.
type S struct {
	mu sync.Mutex
}

func (s *S) Locked() {
	s.mu.Lock()
	s.under()
	s.mu.Unlock()
}

func (s *S) under() { s.leaf() }

func (s *S) leaf() {}
