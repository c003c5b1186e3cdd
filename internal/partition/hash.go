package partition

import (
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/hashx"
	"github.com/adwise-go/adwise/internal/vcache"
)

// Hash assigns each edge by hashing both endpoints — the default loading
// strategy of PowerGraph and GraphX ("random" vertex-cut). Fast and
// balanced, but oblivious to locality, so it marks the high-replication
// end of the Figure 1 landscape.
type Hash struct {
	cfg   Config
	parts []int
	cache *vcache.Cache
}

// NewHash returns a Hash partitioner.
func NewHash(cfg Config) (*Hash, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Hash{cfg: cfg, parts: cfg.allowed(), cache: cfg.newCache()}, nil
}

// Name implements Partitioner.
func (h *Hash) Name() string { return "hash" }

// Cache implements Partitioner.
func (h *Hash) Cache() *vcache.Cache { return h.cache }

// Assign implements Partitioner.
func (h *Hash) Assign(e graph.Edge) int {
	p := h.parts[hashEdge(h.cfg.Seed, e)%uint64(len(h.parts))]
	h.cache.Assign(e, p)
	return p
}

// OneDim assigns each edge by hashing its source vertex — the "1D"
// adjacency-matrix row partitioning of GraphX. All out-edges of a vertex
// land together, so sources are never replicated but destinations spread
// freely.
type OneDim struct {
	cfg   Config
	parts []int
	cache *vcache.Cache
}

// NewOneDim returns a 1D partitioner.
func NewOneDim(cfg Config) (*OneDim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &OneDim{cfg: cfg, parts: cfg.allowed(), cache: cfg.newCache()}, nil
}

// Name implements Partitioner.
func (o *OneDim) Name() string { return "1d" }

// Cache implements Partitioner.
func (o *OneDim) Cache() *vcache.Cache { return o.cache }

// Assign implements Partitioner.
func (o *OneDim) Assign(e graph.Edge) int {
	p := o.parts[hashVertex(o.cfg.Seed, e.Src)%uint64(len(o.parts))]
	o.cache.Assign(e, p)
	return p
}

// TwoDim assigns each edge to a block of the adjacency matrix: the allowed
// partitions are arranged into an r×c grid and edge (u,v) goes to block
// (hash(u) mod r, hash(v) mod c) — the "2D" partitioning of GraphX, which
// bounds each vertex's replica count by r+c.
type TwoDim struct {
	cfg    Config
	parts  []int
	cache  *vcache.Cache
	r, c   int
	seedRe uint64
}

// NewTwoDim returns a 2D partitioner.
func NewTwoDim(cfg Config) (*TwoDim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts := cfg.allowed()
	r, c := gridShape(len(parts))
	return &TwoDim{
		cfg:    cfg,
		parts:  parts,
		cache:  cfg.newCache(),
		r:      r,
		c:      c,
		seedRe: hashx.SplitMix64(cfg.Seed + 1),
	}, nil
}

// gridShape factorises n into the most square r×c with r*c <= n, r,c >= 1.
func gridShape(n int) (r, c int) {
	r = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			r = d
		}
	}
	return r, n / r
}

// Name implements Partitioner.
func (t *TwoDim) Name() string { return "2d" }

// Cache implements Partitioner.
func (t *TwoDim) Cache() *vcache.Cache { return t.cache }

// Assign implements Partitioner.
func (t *TwoDim) Assign(e graph.Edge) int {
	row := int(hashVertex(t.cfg.Seed, e.Src) % uint64(t.r))
	col := int(hashVertex(t.seedRe, e.Dst) % uint64(t.c))
	p := t.parts[row*t.c+col]
	t.cache.Assign(e, p)
	return p
}
