package core

import (
	"github.com/adwise-go/adwise/internal/metric"
	"github.com/adwise-go/adwise/internal/scorepool"
)

// scorePool is one instance's view of window-scoring parallelism: it
// splits a pass into the instance's fixed logical shards and submits them
// to a scorepool.Pool — the process-wide shared pool, or a private one in
// tests — where the instance's own goroutine and any idle pool worker
// execute them. Under spotlight loading this is what lets an instance on
// a dense segment borrow the cores an instance on a sparse segment is not
// using, instead of being pinned to a static cores/z slice of the machine.
//
// Determinism contract: a pass result must be byte-for-byte independent
// of the pool's worker count, of stealing order, and of whether the pass
// ran in parallel at all. The client guarantees this by construction —
//
//   - shard boundaries are a fixed function of (items, n): shard i covers
//     [i·items/n, (i+1)·items/n) with n the instance's *logical* shard
//     count, never the pool width, so the same items always land in the
//     same shard;
//   - shard i always computes with scratch i, and shards only compute:
//     they write disjoint result slots and never touch window state, so
//     neither evaluation order nor the executing goroutine can leak into
//     results (scoreEdge is a pure function of the per-pass scoreView and
//     the cache, which nothing mutates during a pass);
//   - every reduction over shard results (argmax, top-two) merges in shard
//     order with strictly-greater comparisons, which reproduces exactly
//     the first-wins-ties semantics of a single left-to-right scan — the
//     insertion-order tie-break of the serial code.
//
// Mutations (updateScore, promote/demote, set surgery) happen strictly
// after the parallel phase, serially, in snapshot order. The pool is
// therefore an execution detail: any shard count and any pool produce
// edge-for-edge identical assignments.
//
// A client with n == 1 or without a pool never leaves the caller's
// goroutine and runs every pass inline.
type scorePool struct {
	pool *scorepool.Pool // nil → every pass runs inline on the caller
	n    int             // logical shard count (fixed at construction)

	// scratch[i] is owned by logical shard i: at most one pass is active
	// per instance and each shard is claimed exactly once, so whichever
	// goroutine executes shard i has exclusive use of scratch i. Ops
	// accumulated here are this instance's alone — per-instance
	// attribution is structural, not bookkept.
	scratch []*scoreScratch

	pass scorepool.Pass // reusable submission state

	// passes counts passes that actually ran on the pool (≥2 shards);
	// stolen counts shards of those passes executed by pool workers
	// rather than this instance; helpersPeak is the largest number of
	// distinct pool workers that served a single pass.
	passes      int64
	stolen      int64
	helpersPeak int

	// mPasses/mStolen, when set (WithMetrics), mirror the pass and steal
	// counters onto a live telemetry registry. They tick once per pool
	// pass — never per edge — so the scoring hot loop is untouched.
	mPasses *metric.Counter
	mStolen *metric.Counter
}

// Grain thresholds: below these sizes the dispatch overhead exceeds the
// work and a pass runs inline on the caller (identical results — see the
// determinism contract above).
const (
	// scoreGrainPerWorker is the minimum number of scoreEdge evaluations
	// per shard worth dispatching: one evaluation costs an O(k) kernel plus
	// a neighbourhood walk, a few hundred ns at least.
	scoreGrainPerWorker = 32
	// scanGrain is the minimum candidate count worth sharding a cached-
	// score scan over: the scan is a float compare per entry, so only very
	// large windows amortise the handoff.
	scanGrain = 1 << 14
)

func newScorePool(pool *scorepool.Pool, n, nparts int) *scorePool {
	if n < 1 {
		n = 1
	}
	p := &scorePool{pool: pool, n: n, scratch: make([]*scoreScratch, n)}
	for i := range p.scratch {
		p.scratch[i] = newScoreScratch(nparts)
	}
	return p
}

// shard returns the fixed boundaries of shard i over items elements.
func (p *scorePool) shard(i, items int) (lo, hi int) {
	return i * items / p.n, (i + 1) * items / p.n
}

// forEach runs fn over [0, items) split into the instance's fixed logical
// shards, handing each shard its id (the index of the scratch it owns).
// Passes smaller than minPerShard·n run inline on the caller with shard
// id 0 — by the determinism contract the result is identical either way.
// It reports whether the pass actually ran on the pool.
func (p *scorePool) forEach(items, minPerShard int, fn func(shard, lo, hi int)) bool {
	if p == nil || p.n <= 1 || p.pool == nil || items < minPerShard*p.n {
		fn(0, 0, items)
		return false
	}
	p.passes++
	if p.mPasses != nil {
		p.mPasses.Inc(1)
	}
	stolen, helpers := p.pool.Run(&p.pass, p.n, func(shard int) {
		lo, hi := p.shard(shard, items)
		if lo < hi {
			fn(shard, lo, hi)
		}
	})
	p.stolen += int64(stolen)
	if p.mStolen != nil && stolen > 0 {
		p.mStolen.Inc(int64(stolen))
	}
	if helpers > p.helpersPeak {
		p.helpersPeak = helpers
	}
	return true
}

// workerOps returns the per-shard score-op counters (index = logical shard
// id). Shard 0's inline-pass ops are included; the scorer's prime scratch
// is accounted separately.
func (p *scorePool) workerOps() []int64 {
	if p == nil {
		return nil
	}
	ops := make([]int64, len(p.scratch))
	for i, s := range p.scratch {
		ops[i] = s.scoreOps
	}
	return ops
}

// totalOps sums the scoring work done on the client's shard scratches.
func (p *scorePool) totalOps() int64 {
	var sum int64
	if p == nil {
		return 0
	}
	for _, s := range p.scratch {
		sum += s.scoreOps
	}
	return sum
}

// shardTop is one shard's cached-score scan result.
type shardTop struct {
	bestIdx   int     // index of the shard's best entry, -1 if the shard was empty
	bestScore float64 // cached score at bestIdx
	second    float64 // best runner-up cached score within the shard (0 floor)
}

// topTwoCached scans a set's cached scores for the argmax and the
// runner-up score — the lazy-selection scan of §III-B — sharded over the
// pool when the window is large enough. The scan input is the set's flat
// score slice (struct-of-arrays: scores[i] mirrors the entry at index i),
// so each shard is a branch-light loop over contiguous float64s. The
// merge walks shards in order with strictly-greater comparisons, so the
// result (including the earliest-index tie-break) is exactly that of one
// serial left-to-right scan; the runner-up keeps the serial code's 0
// floor (scores are non-negative).
func (p *scorePool) topTwoCached(scores []float64) (bestIdx int, second float64) {
	if len(scores) == 0 {
		return -1, 0
	}
	if p == nil || p.n <= 1 || p.pool == nil || len(scores) < scanGrain {
		top := scanTopTwo(scores, 0, len(scores))
		return top.bestIdx, top.second
	}
	tops := make([]shardTop, p.n)
	p.forEach(len(scores), scanGrain/p.n, func(shard, lo, hi int) {
		tops[shard] = scanTopTwo(scores, lo, hi)
	})
	merged := shardTop{bestIdx: -1}
	for _, t := range tops {
		if t.bestIdx < 0 {
			continue
		}
		if merged.bestIdx < 0 {
			merged = t
			continue
		}
		if t.bestScore > merged.bestScore {
			// The old leader becomes the runner-up candidate; the new
			// shard's own runner-up competes too.
			second := merged.bestScore
			if t.second > second {
				second = t.second
			}
			merged = shardTop{bestIdx: t.bestIdx, bestScore: t.bestScore, second: second}
		} else {
			// t.bestScore ≤ leader: it is the shard's only candidate for
			// the global runner-up (its own runner-up is no larger).
			if t.bestScore > merged.second {
				merged.second = t.bestScore
			}
		}
	}
	return merged.bestIdx, merged.second
}

// scanTopTwo is the serial scan kernel over scores[lo:hi]: first-wins
// argmax on strictly-greater, runner-up floored at 0 (all scores are
// non-negative), matching the historical selectLazy scan semantics. The
// input is a contiguous float64 slice, so the loop is two compares and at
// most two moves per element — no pointer chasing.
func scanTopTwo(scores []float64, lo, hi int) shardTop {
	if lo >= hi {
		return shardTop{bestIdx: -1}
	}
	top := shardTop{bestIdx: lo, bestScore: scores[lo]}
	for i := lo + 1; i < hi; i++ {
		if s := scores[i]; s > top.bestScore {
			top.second = top.bestScore
			top.bestIdx, top.bestScore = i, s
		} else if s > top.second {
			top.second = s
		}
	}
	return top
}
