package partition

import (
	"fmt"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/vcache"
)

// HDRFDefaultLambda is the balancing weight recommended by the HDRF authors
// and used throughout the paper's evaluation.
const HDRFDefaultLambda = 1.1

// hdrfEpsilon avoids division by zero in the balance term, following the
// reference implementation.
const hdrfEpsilon = 1.0

// HDRF is High-Degree (vertices are) Replicated First (Petroni et al.,
// CIKM 2015), the strongest single-edge streaming baseline in the paper's
// evaluation. For edge (u,v) and partition p it maximises
//
//	C(u,v,p) = CRep(u,v,p) + λ·CBal(p)
//	CRep     = g(u,p) + g(v,p)
//	g(u,p)   = 1{p∈Ru} · (1 + (1 − θu)),   θu = δ(u)/(δ(u)+δ(v))
//	CBal(p)  = (maxsize − |p|) / (ε + maxsize − minsize)
//
// with partial degrees δ updated as the stream is consumed, so the
// low-degree endpoint dominates the replication reward and high-degree
// vertices end up replicated.
type HDRF struct {
	cfg    Config
	lambda float64
	parts  []int
	cache  *vcache.Cache
}

// NewHDRF returns an HDRF partitioner with balancing weight lambda
// (use HDRFDefaultLambda for the paper's setting).
func NewHDRF(cfg Config, lambda float64) (*HDRF, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if lambda < 0 {
		return nil, fmt.Errorf("partition: HDRF lambda must be >= 0, got %v", lambda)
	}
	return &HDRF{cfg: cfg, lambda: lambda, parts: cfg.allowed(), cache: cfg.newCache()}, nil
}

// Name implements Partitioner.
func (h *HDRF) Name() string { return "hdrf" }

// Cache implements Partitioner.
func (h *HDRF) Cache() *vcache.Cache { return h.cache }

// Lambda returns the configured balancing weight.
func (h *HDRF) Lambda() float64 { return h.lambda }

// Assign implements Partitioner. Each endpoint costs one cache probe,
// which yields its degree and replica words together.
func (h *HDRF) Assign(e graph.Edge) int {
	degU, ru := h.cache.LookupWords(e.Src)
	degV, rv := h.cache.LookupWords(e.Dst)
	// Partial degrees including the current edge, as in the reference
	// implementation (degrees are bumped before scoring).
	du := float64(degU + 1)
	dv := float64(degV + 1)
	thetaU := du / (du + dv)
	thetaV := 1 - thetaU

	minSize, maxSize := h.cache.MinMaxSizeOf(h.parts)

	best, bestScore := h.parts[0], -1.0
	for _, p := range h.parts {
		var rep float64
		if hasReplica(ru, p) {
			rep += 1 + (1 - thetaU)
		}
		if hasReplica(rv, p) {
			rep += 1 + (1 - thetaV)
		}
		bal := float64(maxSize-h.cache.Size(p)) / (hdrfEpsilon + float64(maxSize-minSize))
		score := rep + h.lambda*bal
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	h.cache.Assign(e, best)
	return best
}

// hasReplica reports whether partition p's bit is set in the replica words
// vcache.Cache.LookupWords returned; a miss's nil words hold no replica.
func hasReplica(words []uint64, p int) bool {
	w := p >> 6
	return w < len(words) && words[w]&(1<<(uint(p)&63)) != 0
}
