// Package a exercises shardiso: values rooted at `// shard-owned`
// fields must not cross the router boundary — no return, no store into
// package-level or non-shard-owned slots, no channel send, no capture
// by a goroutine that outlives the per-shard call, and no handoff to a
// module function whose parameter provably escapes. Method calls on
// shard-owned values are use, not escape; WaitGroup-joined scatter
// goroutines are bounded by the call and exempt.
package a

import "sync"

type engine struct {
	n int
}

func (e *engine) Search() int { return e.n }

// shard bundles one shard's private state.
type shard struct {
	eng *engine // shard-owned
}

type router struct {
	shards []*shard // shard-owned
	leaked *engine
	out    chan *engine
}

var sink *engine

// newRouter builds shards: construction stores are exempt.
func newRouter(n int) *router {
	r := &router{}
	for i := 0; i < n; i++ {
		r.shards = append(r.shards, &shard{eng: &engine{}})
	}
	return r
}

// Query drives the shard through method calls: clean.
func (r *router) Query(i int) int {
	return r.shards[i].eng.Search()
}

// Leak returns the shard engine across the boundary.
func (r *router) Leak(i int) *engine {
	return r.shards[i].eng // want `shard-owned a.shard.eng returned across the router boundary`
}

// Stash stores the engine into a field that is not shard-owned.
func (r *router) Stash(i int) {
	r.leaked = r.shards[i].eng // want `shard-owned a.shard.eng stored into non-shard-owned field leaked`
}

// Publish leaks through a tainted local into a package-level variable.
func (r *router) Publish(i int) {
	e := r.shards[i].eng
	sink = e // want `shard-owned value stored in package-level variable sink`
}

// Send pushes the engine out through a channel.
func (r *router) Send(i int) {
	r.out <- r.shards[i].eng // want `shard-owned a.shard.eng escapes through a channel send`
}

// Spawn captures the engine in a goroutine nothing joins.
func (r *router) Spawn(i int) {
	go func() {
		_ = r.shards[i].eng // want `shard-owned a.shard.eng captured by a goroutine that outlives the per-shard call`
	}()
}

// Scatter is the sanctioned shape: every goroutine is joined by the
// WaitGroup before the function returns. Clean.
func (r *router) Scatter() int {
	var wg sync.WaitGroup
	total := make([]int, len(r.shards))
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			total[i] = r.shards[i].eng.Search()
		}(i)
	}
	wg.Wait()
	sum := 0
	for _, t := range total {
		sum += t
	}
	return sum
}

// keep retains its parameter: the escape summary marks it escaping.
func keep(e *engine) {
	sink = e
}

// inspect only tests its parameter: no escape.
func inspect(e *engine) bool {
	return e != nil
}

// Delegate hands the engine to a helper that provably stores it.
func (r *router) Delegate(i int) {
	keep(r.shards[i].eng) // want `shard-owned a.shard.eng passed to keep, whose parameter escapes`
}

// Peek hands the engine to a helper that provably does not: clean.
func (r *router) Peek(i int) bool {
	return inspect(r.shards[i].eng)
}
