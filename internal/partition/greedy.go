package partition

import (
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/vcache"
)

// Greedy is the PowerGraph greedy heuristic (Gonzalez et al., OSDI 2012):
// a case analysis over the replica sets A(u), A(v) of the incoming edge's
// endpoints.
//
//  1. A(u) ∩ A(v) ≠ ∅ → least-loaded partition in the intersection.
//  2. A(u), A(v) both non-empty but disjoint → least-loaded partition in
//     the union (replicating whichever endpoint loses).
//  3. Exactly one non-empty → least-loaded partition of that set.
//  4. Both empty → least-loaded allowed partition overall.
type Greedy struct {
	cfg   Config
	parts []int
	cache *vcache.Cache
	// scratch buffer reused across assignments to avoid per-edge allocs
	cand []int
}

// NewGreedy returns a Greedy partitioner.
func NewGreedy(cfg Config) (*Greedy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Greedy{
		cfg:   cfg,
		parts: cfg.allowed(),
		cache: cfg.newCache(),
		cand:  make([]int, 0, cfg.K),
	}, nil
}

// Name implements Partitioner.
func (g *Greedy) Name() string { return "greedy" }

// Cache implements Partitioner.
func (g *Greedy) Cache() *vcache.Cache { return g.cache }

// Assign implements Partitioner.
func (g *Greedy) Assign(e graph.Edge) int {
	ru := g.cache.Replicas(e.Src)
	rv := g.cache.Replicas(e.Dst)

	g.cand = g.cand[:0]
	switch {
	case ru.Intersects(rv):
		for _, p := range g.parts {
			if ru.Contains(p) && rv.Contains(p) {
				g.cand = append(g.cand, p)
			}
		}
	case !ru.Empty() && !rv.Empty():
		for _, p := range g.parts {
			if ru.Contains(p) || rv.Contains(p) {
				g.cand = append(g.cand, p)
			}
		}
	case !ru.Empty():
		for _, p := range g.parts {
			if ru.Contains(p) {
				g.cand = append(g.cand, p)
			}
		}
	case !rv.Empty():
		for _, p := range g.parts {
			if rv.Contains(p) {
				g.cand = append(g.cand, p)
			}
		}
	}
	// Under spotlight restrictions the replica sets may lie entirely
	// outside the allowed spread; fall back to balancing over the spread.
	if len(g.cand) == 0 {
		g.cand = append(g.cand, g.parts...)
	}
	p := leastLoaded(g.cache, g.cand)
	g.cache.Assign(e, p)
	return p
}
