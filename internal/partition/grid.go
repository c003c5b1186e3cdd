package partition

import (
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/vcache"
)

// Grid is the constrained-hashing strategy of GraphBuilder (Jain et al.,
// GRADES 2013): the allowed partitions are arranged in an r×c grid, each
// vertex is hashed to one grid cell, and an edge may only be placed on the
// intersection of its endpoints' constraint sets (the row and column
// through each endpoint's cell). Within the candidate set the least-loaded
// partition wins. The constraint bounds every vertex's replicas by r+c−1.
type Grid struct {
	cfg   Config
	parts []int
	cache *vcache.Cache
	r, c  int
	cand  []int
}

// NewGrid returns a Grid partitioner.
func NewGrid(cfg Config) (*Grid, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts := cfg.allowed()
	r, c := gridShape(len(parts))
	return &Grid{
		cfg:   cfg,
		parts: parts,
		cache: cfg.newCache(),
		r:     r,
		c:     c,
		cand:  make([]int, 0, r+c),
	}, nil
}

// Name implements Partitioner.
func (g *Grid) Name() string { return "grid" }

// Cache implements Partitioner.
func (g *Grid) Cache() *vcache.Cache { return g.cache }

// cell returns the grid cell (row, col) vertex v hashes to.
func (g *Grid) cell(v graph.VertexID) (row, col int) {
	h := hashVertex(g.cfg.Seed, v)
	idx := int(h % uint64(g.r*g.c))
	return idx / g.c, idx % g.c
}

// Assign implements Partitioner.
func (g *Grid) Assign(e graph.Edge) int {
	ur, uc := g.cell(e.Src)
	vr, vc := g.cell(e.Dst)

	// Constraint sets: S(u) = row ur ∪ column uc. The intersection
	// S(u) ∩ S(v) always contains the "corner" cells (ur,vc) and (vr,uc),
	// so the candidate set is never empty.
	g.cand = g.cand[:0]
	g.cand = append(g.cand, ur*g.c+vc, vr*g.c+uc)
	if ur == vr {
		// Same row: the whole row is in both constraint sets.
		for col := 0; col < g.c; col++ {
			g.cand = append(g.cand, ur*g.c+col)
		}
	}
	if uc == vc {
		for row := 0; row < g.r; row++ {
			g.cand = append(g.cand, row*g.c+uc)
		}
	}
	// Map grid cells to global partition ids.
	for i, cell := range g.cand {
		g.cand[i] = g.parts[cell]
	}
	p := leastLoaded(g.cache, g.cand)
	g.cache.Assign(e, p)
	return p
}
