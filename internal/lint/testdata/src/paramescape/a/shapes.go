// Package a pins the parameter-escape summary that shardiso reads
// (TestEscapeKinds): each function exhibits one way a parameter can leave
// the frame, or one way it stays put.
package a

import "strconv"

type box struct {
	p *int
}

var global *int

var registry []*int

// ret returns its parameter.
func ret(p *int) *int { return p }

// store stores its parameter into a package-level variable.
func store(p *int) { global = p }

// fieldStore stores its second parameter into a foreign struct field.
func fieldStore(b *box, p *int) { b.p = p }

// insert appends its parameter into a package-level slice.
func insert(p *int) { registry = append(registry, p) }

// spawn hands its parameter to a goroutine nothing joins.
func spawn(p *int) {
	go func() { _ = p }()
}

// mystery passes its parameter out of the module: the summary cannot
// see what the callee does with it.
func mystery(p *int) string {
	return strconv.Itoa(*p)
}

// chain forwards to store: escapes chase through helper chains bottom-up.
func chain(p *int) { store(p) }

// reads uses its parameter without retaining it.
func reads(p *int) int { return *p + 1 }

// closure returns a function literal that returns its parameter: the
// literal's inner return counts as a return of the alias (a documented
// over-approximation).
func closure(p *int) func() *int {
	return func() *int { return p }
}

// sender pushes its parameter into a channel.
func sender(p *int, ch chan *int) { ch <- p }

// literal embeds its parameter in a composite literal.
func literal(p *int) {
	b := box{p: p}
	_ = b
}
