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
//     depends on besides the edge itself: λ, the partition-size extrema,
//     the maximum degree, and a read-only handle on the vertex cache.
//     Within one scoring pass no assignment is committed, so the snapshot
//     is exact — and because it is never written during the pass, any
//     number of workers can score against it concurrently.
//   - scoreScratch is the per-worker mutable state: the clustering-score
//     counters, the per-partition score buffer, the neighbourhood
//     collection buffer and epoch stamps, and the worker's score-op
//     counter. Each worker owns one; nothing in a scratch is shared.
//   - scorer owns the cache, the adaptive λ, and a "prime" scratch for the
//     serial paths (add, reassess, single-leader rescores), and mints
//     scoreViews at pass boundaries.

// scoreScratch is the mutable per-worker scoring state. One scratch is
// owned by exactly one goroutine at a time; the pool hands scratch i to
// shard-worker i and the scorer's prime scratch serves every serial path.
type scoreScratch struct {
	csCounts        []float64 // per-global-partition clustering-score counters
	scores          []float64 // per-allowed-partition scores
	neighborScratch []graph.VertexID
	// stamps[s] == epoch marks window slot s as already seen by the
	// current neighbourhood walk; every walk advances epoch instead of
	// clearing a seen-set. Grown lazily to the window's slot count.
	stamps []uint32
	epoch  uint32
	// scoreOps counts edge score evaluations performed with this scratch
	// (each evaluation covers all allowed partitions).
	scoreOps int64
}

func newScoreScratch(k, nparts int) *scoreScratch {
	return &scoreScratch{
		// Padded to a whole number of 64-bit bitmap words: the clustering
		// accumulation scatters by word-scanning replica bitmaps, and a
		// padded buffer lets that scan index without a per-bit k bound
		// check (bits ≥ k are never set, but the slots must exist).
		csCounts: make([]float64, paddedParts(k)),
		scores:   make([]float64, nparts),
	}
}

// nextEpoch starts a neighbourhood walk over window slots [0, slots): it
// grows the stamp array to cover every slot (new stamps are zero, never a
// live epoch) and advances the epoch. When the 32-bit epoch wraps — after
// 2^32 walks, hundreds of millions of edges at a few score ops per edge —
// the array is cleared, so no stamp left from the previous cycle can read
// as current.
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
// them plus the cache, which no one mutates during a pass — commits happen
// strictly between passes. This is what makes a scoring pass safe to shard
// across workers and, independently, what pins the pass semantics: every
// edge scored in one pass sees the same λ, sizes, and degrees, regardless
// of evaluation order.
//
// The balance term λ·B(p) of Eq. 7 depends only on λ and the partition
// sizes — both fixed for the pass — so the view carries it precomputed
// per allowed partition: the inner scoring loop reads one float64 from a
// flat slice instead of recomputing a division per (edge, partition)
// pair. The precomputation evaluates λ·(maxSize−size(p))/spread with the
// same operation order as the historical per-edge form, so pass scores
// are bit-identical.
type scoreView struct {
	cache *vcache.Cache // read-only during the pass
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

// scoreEdge computes g(e,p) for every allowed partition and returns the
// best score and its (global) partition id. neighbors is the window
// neighbourhood N(u)∪N(v) of the edge (excluding the endpoints
// themselves); it drives the clustering score of Eq. 6. All mutable state
// lives in scr, so concurrent calls with distinct scratches are safe.
//
// This is the replica-scan kernel of the scoring hot loop, written
// branch-light over the flat SoA buffers: the score buffer is seeded with
// the precomputed balance terms in one copy, the replication addends are
// scattered by word-scanning the endpoint replica bitmaps with math/bits
// (set bits only — no per-partition Contains probe, no per-bit closure),
// the clustering counts accumulate the same way over the neighbour
// bitmaps, and one flat fold finishes the per-partition sums and the
// argmax. Floating-point operation order per partition slot is identical
// to the historical per-partition loop (balance, +R(u), +R(v), +CS, in
// that order), so scores are bit-identical.
//
// The returned slice aliases scr.scores and is only valid until the next
// scoreEdge call with the same scratch.
//
//adwise:zeroalloc
func (v *scoreView) scoreEdge(e graph.Edge, neighbors []graph.VertexID, scr *scoreScratch) (scores []float64, best float64, bestPart int) {
	scr.scoreOps++

	// Degree-aware replication score (Eq. 5): Ψu = deg(u)/(2·maxDegree),
	// so already-replicated low-degree endpoints pull harder (2−Ψ larger)
	// than high-degree ones — replicating high-degree vertices first.
	degU, ruWords := v.cache.LookupWords(e.Src)

	// Clustering score (Eq. 6): per-partition count of window neighbours
	// already replicated there, normalised by |N(u)∪N(v)|. The counters
	// accumulate at every set bit (csCounts is padded to whole words);
	// only allowed slots are cleared and read, as before.
	useCS := v.clustering && len(neighbors) > 0
	if useCS {
		for _, p := range v.parts {
			scr.csCounts[p] = 0
		}
		for _, n := range neighbors {
			_, nw := v.cache.LookupWords(n)
			for wi, wd := range nw {
				base := wi << 6
				for wd != 0 {
					scr.csCounts[base+bits.TrailingZeros64(wd)]++
					wd &= wd - 1
				}
			}
		}
	}

	// Seed every allowed slot with its balance term, then scatter the
	// replication addends at the endpoints' replica bits.
	copy(scr.scores, v.balance)
	scatterReplica(scr.scores, v.partIdx, ruWords, 2-float64(degU)/(2*v.maxDeg))
	if e.Dst != e.Src {
		degV, rvWords := v.cache.LookupWords(e.Dst)
		scatterReplica(scr.scores, v.partIdx, rvWords, 2-float64(degV)/(2*v.maxDeg))
	}

	if useCS {
		invN := 1 / float64(len(neighbors))
		for i, p := range v.parts {
			scr.scores[i] += scr.csCounts[p] * invN
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
		prime:      newScoreScratch(cache.K(), len(parts)),
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
		cache:      s.cache,
		parts:      s.parts,
		balance:    s.balBuf,
		partIdx:    s.partIdx,
		maxDeg:     float64(s.cache.MaxDegree()),
		clustering: s.clustering,
	}
}

// scoreEdge scores one edge against a fresh single-call view using the
// prime scratch — the convenience form for the serial one-edge paths and
// tests. Passes that score many edges build one view and call it directly.
func (s *scorer) scoreEdge(e graph.Edge, neighbors []graph.VertexID) (scores []float64, best float64, bestPart int) {
	v := s.view()
	return v.scoreEdge(e, neighbors, s.prime)
}

// commit records the assignment of e to partition p in the vertex cache
// and performs the per-assignment λ update of Eq. 4. It reports which
// endpoints gained a new replica (these drive lazy reassessment, §III-B).
// A commit is a pass boundary: scoreViews minted before it are stale.
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
