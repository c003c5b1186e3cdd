// Package scorepool provides the process-wide work-stealing worker pool
// behind window scoring. One shared Pool, sized to GOMAXPROCS, serves the
// scoring passes of every partitioner instance in the process: a pass is
// submitted as a batch of independent shard tasks, the submitting
// goroutine executes shards of its own pass, and any idle pool worker
// steals shards from whichever pass is oldest. An instance draining a
// dense stream segment therefore borrows the cores that instances on
// sparse segments are not using — the flexing that a static cores/z split
// cannot do.
//
// The pool is deliberately oblivious to what a shard computes: tasks are
// func(shard int). Determinism is the caller's property and is easy to
// keep: shard *boundaries* must be a pure function of the pass inputs
// (never of the worker count), shards must write disjoint result slots,
// and reductions must merge in shard order. Under those rules, which
// goroutine executes a shard — the caller or a stealing worker — cannot
// influence the result, so the pool only ever trades wall-clock.
package scorepool

import (
	"math/bits"
	gort "runtime"
	"sync"
)

// Pool is a fixed set of worker goroutines stealing shard tasks from
// submitted passes. The zero value is not usable; call New.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond // wakes workers when a pass arrives or the pool closes
	queue  []*Pass    // passes with unclaimed shards, oldest first
	closed bool

	wgWorkers sync.WaitGroup
}

// Pass is the reusable per-submitter pass state. A submitter owns one Pass
// value and passes it to every Run call; reuse keeps the steady state
// allocation-free. A Pass must not be shared between concurrent Run calls.
type Pass struct {
	fn   func(shard int)
	n    int
	next int // next unclaimed shard; guarded by the pool's mu
	wg   sync.WaitGroup

	// Steal accounting, written under the pool's mu at claim time and
	// published to the submitter by the WaitGroup at pass end.
	stolen  int    // shards executed by pool workers rather than the submitter
	helpers uint64 // bitmask of distinct pool workers that claimed a shard
}

// New starts a pool with the given number of worker goroutines (minimum
// 1). Workers idle on a condition variable when no pass is active. Shared
// builds the process-wide pool with it; tests build private pools to pin
// a pass to a known worker count.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wgWorkers.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide scoring pool, created on first use with
// GOMAXPROCS workers. It is never closed; every partitioner instance in
// the process that scores on more than one shard submits its scoring
// passes here.
func Shared() *Pool {
	sharedOnce.Do(func() {
		shared = New(gort.GOMAXPROCS(0))
	})
	return shared
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers once the queue drains. Passes submitted after
// Close run entirely on their callers. The shared pool must not be closed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wgWorkers.Wait()
}

// Run executes fn(0) … fn(n-1) and returns when all n shards completed.
// The caller executes shards of its own pass; idle pool workers steal the
// rest. It reports how many shards were stolen by pool workers and how
// many distinct workers participated — the flexing visibility the skew
// benchmarks assert on. Shards may run in any order and concurrently;
// the caller's determinism rules (fixed boundaries, disjoint slots,
// shard-order merges) are what make that order invisible.
func (p *Pool) Run(ps *Pass, n int, fn func(shard int)) (stolen, helpers int) {
	if n <= 0 {
		return 0, 0
	}
	ps.fn, ps.n, ps.next = fn, n, 0
	ps.stolen, ps.helpers = 0, 0
	ps.wg.Add(n)

	p.mu.Lock()
	enqueued := !p.closed && p.workers > 0
	if enqueued {
		p.queue = append(p.queue, ps)
	}
	p.mu.Unlock()
	if enqueued {
		p.cond.Broadcast()
	}

	// The caller works its own pass until every shard is claimed, then
	// waits out the shards helpers are still running.
	for {
		p.mu.Lock()
		if ps.next >= ps.n {
			p.mu.Unlock()
			break
		}
		shard := ps.next
		ps.next++
		if ps.next >= ps.n {
			p.dequeue(ps)
		}
		p.mu.Unlock()
		fn(shard)
		ps.wg.Done()
	}
	ps.wg.Wait()
	return ps.stolen, bits.OnesCount64(ps.helpers)
}

// dequeue removes a fully claimed pass from the queue. Callers hold mu.
func (p *Pool) dequeue(ps *Pass) {
	for i, q := range p.queue {
		if q == ps {
			copy(p.queue[i:], p.queue[i+1:])
			p.queue[len(p.queue)-1] = nil
			p.queue = p.queue[:len(p.queue)-1]
			return
		}
	}
}

// worker steals shards from the oldest pass with unclaimed work.
func (p *Pool) worker(id int) {
	defer p.wgWorkers.Done()
	p.mu.Lock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		ps := p.queue[0]
		shard := ps.next
		ps.next++
		ps.stolen++
		ps.helpers |= 1 << (uint(id) & 63)
		if ps.next >= ps.n {
			p.dequeue(ps)
		}
		p.mu.Unlock()
		ps.fn(shard)
		ps.wg.Done()
		p.mu.Lock()
	}
}
