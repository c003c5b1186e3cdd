// Package core implements ADWISE, the adaptive window-based streaming
// edge partitioner of the paper (§III). The spotlight optimization for
// parallel loading (§III-D) lives in internal/runtime, which orchestrates
// this package's partitioner alongside the single-edge baselines.
package core

import (
	"math/bits"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/vcache"
)

// Scoring function of §III-C:
//
//	g(e,p) = λ(ι,α)·B(p) + R(e,p) + CS(e,p)          (Eq. 7)
//
// with the adaptive balancing score B and weight λ (Eq. 3, 4), the
// degree-aware replication score R (Eq. 5) and the clustering score CS
// (Eq. 6).
//
// Scoring is split into three pieces so window passes can run on a worker
// pool (see scorepool.go):
//
//   - scoreView is the immutable per-pass snapshot of everything a score
//     depends on besides the edge's own inputs: λ, the partition-size
//     extrema, the maximum degree, and the allowed-partition layout.
//     Within one scoring pass no assignment is committed, so the snapshot
//     is exact — and because it is never written during the pass, any
//     number of workers can score against it concurrently.
//   - scoreScratch is the per-worker mutable state: the clustering-score
//     counts, the per-partition score buffer, the epoch stamps of the
//     window walks, and the worker's score-op and |N| counters. Each
//     worker owns one; nothing in a scratch is shared.
//   - scorer owns the cache, the adaptive λ, and a "prime" scratch for the
//     serial paths (add, reassess, single-leader rescores), and mints
//     scoreViews at pass boundaries.
//
// The kernel takes its per-edge inputs ready-made: the two endpoints'
// degrees and replica words (from the window's slot mirrors, or one cache
// probe for an endpoint without a window edge) and the clustering
// inputs |N(u)∪N(v)| and per-partition neighbour counts, which the
// window produces (window.go). It never probes the cache itself.

// scoreScratch is the mutable per-worker scoring state. One scratch is
// owned by exactly one goroutine at a time; the pool hands scratch i to
// shard-worker i and the scorer's prime scratch serves every serial path.
type scoreScratch struct {
	// cs[i] counts the scored edge's window neighbours replicated on the
	// allowed partition parts[i] — the numerators of Eq. 6, filled by the
	// window's neighbourhood producers.
	cs     []int32
	scores []float64 // per-allowed-partition scores
	// stamps[s] == epoch marks window slot s as already seen by the
	// current walk; every walk advances epoch instead of clearing a
	// seen-set. Grown lazily to the window's slot count.
	stamps []uint32
	epoch  uint32
	// scoreOps counts edge score evaluations performed with this scratch
	// (each evaluation covers all allowed partitions).
	scoreOps int64
	// nSum accumulates |N(u)∪N(v)| over this scratch's clustering
	// evaluations; the window reads it to decide which producer serves.
	nSum int64
}

func newScoreScratch(nparts int) *scoreScratch {
	return &scoreScratch{
		cs:     make([]int32, nparts),
		scores: make([]float64, nparts),
	}
}

// nextEpoch starts a walk over window slots [0, slots): it grows the
// stamp array to cover every slot (new stamps are zero, never a live
// epoch) and advances the epoch. When the 32-bit epoch wraps — after 2^32
// walks, hundreds of millions of edges at a few score ops per edge — the
// array is cleared, so no stamp left from the previous cycle can read as
// current.
func (scr *scoreScratch) nextEpoch(slots int) ([]uint32, uint32) {
	if len(scr.stamps) < slots {
		scr.stamps = append(scr.stamps, make([]uint32, slots-len(scr.stamps))...)
	}
	scr.epoch++
	if scr.epoch == 0 {
		clear(scr.stamps)
		scr.epoch = 1
	}
	return scr.stamps, scr.epoch
}

// paddedParts rounds the partition count up to a whole number of 64-bit
// replica-bitmap words, so word-scan kernels can index scatter targets by
// raw bit position without bounds branches.
func paddedParts(k int) int { return (k + 63) / 64 * 64 }

// scoreView is the immutable scoring snapshot for one window pass. All
// fields are fixed at construction (scorer.view); scoreEdge only reads
// them — commits happen strictly between passes. This is what makes a
// scoring pass safe to shard across workers and, independently, what
// pins the pass semantics: every edge scored in one pass sees the same
// λ, sizes, and degrees, regardless of evaluation order.
//
// The balance term λ·B(p) of Eq. 7 depends only on λ and the partition
// sizes — both fixed for the pass — so the view carries it precomputed
// per allowed partition: the inner scoring loop reads one float64 from a
// flat slice instead of recomputing a division per (edge, partition)
// pair. The precomputation evaluates λ·(maxSize−size(p))/spread with the
// same operation order as the historical per-edge form, so pass scores
// are bit-identical.
type scoreView struct {
	parts []int

	// balance[i] = λ·B(parts[i]), fixed for the pass. Aliases the minting
	// scorer's balBuf; valid until the next view is minted, which only
	// happens at pass boundaries.
	balance []float64
	// partIdx maps a global partition id to its index in parts (and hence
	// in balance and the per-scratch score buffer), −1 for partitions
	// outside the allowed spread. Padded to whole bitmap words and static
	// for the scorer's lifetime; it is what lets the kernel scatter
	// replication addends by replica-bitmap bit position instead of
	// probing Contains per allowed partition.
	partIdx    []int32
	maxDeg     float64
	clustering bool
}

// endpoint is the replication input of one scored-edge endpoint: its
// partial degree and replica words. Words are nil for a vertex the cache
// does not hold, and the zero endpoint stands for the repeated endpoint
// of a self-loop, which the replication term counts once.
type endpoint struct {
	deg   int32
	words []uint64
}

// scoreEdge computes g(e,p) for every allowed partition and returns the
// best score and its (global) partition id. src and dst are e's endpoint
// inputs (dst the zero endpoint for a self-loop); n = |N(u)∪N(v)| is the
// size of the edge's window neighbourhood and counts[i] how many of those
// neighbours are replicated on parts[i] — the clustering score of Eq. 6,
// skipped when n is 0. All mutable state lives in scr, so concurrent
// calls with distinct scratches are safe.
//
// This is the replica-scan kernel of the scoring hot loop, written
// branch-light over the flat SoA buffers: the score buffer is seeded with
// the precomputed balance terms in one copy, the replication addends are
// scattered by word-scanning the endpoint replica bitmaps with math/bits
// (set bits only — no per-partition Contains probe, no per-bit closure),
// and one flat fold adds the clustering term and finds the argmax. The
// counts are exact integers, so count·(1/n) is the same float64 the
// historical per-neighbour accumulation produced, and the operation order
// per partition slot is unchanged (balance, +R(u), +R(v), +CS): scores
// are bit-identical to the historical per-partition loop.
//
// The returned slice aliases scr.scores and is only valid until the next
// scoreEdge call with the same scratch.
//
//adwise:zeroalloc
func (v *scoreView) scoreEdge(src, dst endpoint, n int, counts []int32, scr *scoreScratch) (scores []float64, best float64, bestPart int) {
	scr.scoreOps++

	// Degree-aware replication score (Eq. 5): Ψu = deg(u)/(2·maxDegree),
	// so already-replicated low-degree endpoints pull harder (2−Ψ larger)
	// than high-degree ones — replicating high-degree vertices first.
	// Seed every allowed slot with its balance term, then scatter the
	// replication addends at the endpoints' replica bits.
	copy(scr.scores, v.balance)
	scatterReplica(scr.scores, v.partIdx, src.words, 2-float64(src.deg)/(2*v.maxDeg))
	scatterReplica(scr.scores, v.partIdx, dst.words, 2-float64(dst.deg)/(2*v.maxDeg))

	// Clustering score (Eq. 6): per-partition count of window neighbours
	// already replicated there, normalised by |N(u)∪N(v)|.
	if n > 0 {
		invN := 1 / float64(n)
		counts = counts[:len(scr.scores)]
		for i, c := range counts {
			scr.scores[i] += float64(c) * invN
		}
	}

	// First-wins argmax in allowed-partition order — the same tie-break
	// as the historical fused loop.
	best, bestPart = -1, v.parts[0]
	for i, g := range scr.scores {
		if g > best {
			best, bestPart = g, v.parts[i]
		}
	}
	return scr.scores, best, bestPart
}

// scatterReplica adds addend to the score slot of every allowed partition
// whose bit is set in words — the word-scan replacement for the
// per-partition Contains probe of the replication term. partIdx is padded
// past the highest possible bit, so the inner loop's only branch besides
// the scan itself is the allowed-spread guard.
//
//adwise:zeroalloc
func scatterReplica(scores []float64, partIdx []int32, words []uint64, addend float64) {
	for wi, wd := range words {
		base := wi << 6
		for wd != 0 {
			if idx := partIdx[base+bits.TrailingZeros64(wd)]; idx >= 0 {
				scores[idx] += addend
			}
			wd &= wd - 1
		}
	}
}

// scatterCount adds delta to the count of every allowed partition whose
// bit is set in words: the clustering-count form of scatterReplica, used
// by the window's neighbourhood producers and count maintenance.
//
//adwise:zeroalloc
func scatterCount(counts []int32, partIdx []int32, words []uint64, delta int32) {
	for wi, wd := range words {
		base := wi << 6
		for wd != 0 {
			if idx := partIdx[base+bits.TrailingZeros64(wd)]; idx >= 0 {
				counts[idx] += delta
			}
			wd &= wd - 1
		}
	}
}

// scorer evaluates g(e,p) against a vertex cache and maintains the
// adaptive balancing weight λ. It is the pass-boundary owner of scoring:
// views are minted per pass, and the prime scratch backs the serial paths.
type scorer struct {
	cache *vcache.Cache
	parts []int // allowed partitions (spotlight spread)

	lambda     float64
	lambdaMin  float64
	lambdaMax  float64
	balanceEps float64 // ε in Eq. 3
	clustering bool

	totalEdges int64 // m in Eq. 4; <= 0 means unknown

	// prime is the scratch of the serial scoring paths (window add,
	// reassess, lazy-leader rescores). Worker scratches live in scorePool.
	prime *scoreScratch

	// balBuf backs scoreView.balance: one float64 per allowed partition,
	// refilled by view() at each pass boundary. At most one pass (and hence
	// one live view) exists per scorer, so reuse is safe.
	balBuf []float64
	// partIdx backs scoreView.partIdx: global partition id → allowed
	// index, −1 outside the spread, padded to whole bitmap words. The
	// allowed set never changes, so it is built once.
	partIdx []int32
}

func newScorer(cache *vcache.Cache, parts []int, cfg config) *scorer {
	partIdx := make([]int32, paddedParts(cache.K()))
	for i := range partIdx {
		partIdx[i] = -1
	}
	for i, p := range parts {
		partIdx[p] = int32(i)
	}
	return &scorer{
		cache:      cache,
		parts:      parts,
		lambda:     cfg.initialLambda,
		lambdaMin:  cfg.lambdaMin,
		lambdaMax:  cfg.lambdaMax,
		balanceEps: cfg.balanceEps,
		clustering: cfg.clustering,
		totalEdges: cfg.totalEdges,
		prime:      newScoreScratch(len(parts)),
		balBuf:     make([]float64, len(parts)),
		partIdx:    partIdx,
	}
}

// view snapshots the scoring inputs for one window pass. Cheap: one
// min/max sweep over the allowed partition sizes plus one λ·B(p) fill per
// allowed partition — O(|parts|) once per pass instead of a division per
// scored (edge, partition) pair.
func (s *scorer) view() scoreView {
	minSize, maxSize := s.cache.MinMaxSizeOf(s.parts)
	sizeSpread := float64(maxSize-minSize) + s.balanceEps
	for i, p := range s.parts {
		// Same operation order as the historical per-edge computation
		// (λ * (Δ/spread)) so scores stay bit-identical.
		s.balBuf[i] = s.lambda * (float64(maxSize-s.cache.Size(p)) / sizeSpread)
	}
	return scoreView{
		parts:      s.parts,
		balance:    s.balBuf,
		partIdx:    s.partIdx,
		maxDeg:     float64(s.cache.MaxDegree()),
		clustering: s.clustering,
	}
}

// commit records the assignment of e to partition p in the vertex cache
// and performs the per-assignment λ update of Eq. 4. It reports which
// endpoints gained a new replica (these drive lazy reassessment, §III-B).
// A commit is a pass boundary: scoreViews minted before it are stale.
// While a window is live, commit through window.commit, which also
// re-syncs the window's slot mirrors of the changed vertices.
func (s *scorer) commit(e graph.Edge, p int) (newSrc, newDst bool) {
	newSrc, newDst = s.cache.Assign(e, p)

	// Adaptive balancing (Eq. 4): λ += ι − tolerance(α) with
	// tolerance(α) = max(0, 1−α), clamped to [λmin, λmax].
	minSize, maxSize := s.cache.MinMaxSizeOf(s.parts)
	var iota float64
	if maxSize > 0 {
		iota = float64(maxSize-minSize) / float64(maxSize)
	}
	alpha := 1.0
	if s.totalEdges > 0 {
		alpha = float64(s.cache.Assigned()) / float64(s.totalEdges)
		if alpha > 1 {
			alpha = 1
		}
	}
	tolerance := 1 - alpha
	if tolerance < 0 {
		tolerance = 0
	}
	s.lambda += iota - tolerance
	if s.lambda < s.lambdaMin {
		s.lambda = s.lambdaMin
	}
	if s.lambda > s.lambdaMax {
		s.lambda = s.lambdaMax
	}
	return newSrc, newDst
}
