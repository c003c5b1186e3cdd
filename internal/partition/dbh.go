package partition

import (
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/vcache"
)

// DBH is Degree-Based Hashing (Xie et al., NIPS 2014): each edge is
// assigned by hashing the endpoint with the smaller (partial) degree, so
// low-degree vertices keep their edges together and high-degree vertices
// absorb the replication — the right cut direction for power-law graphs.
//
// Degrees are partial: counted over the stream prefix seen so far, as in a
// true single-pass deployment. (The original paper assumes known degrees;
// streaming implementations, including the one the ADWISE paper benchmarks,
// use partial degrees.)
type DBH struct {
	cfg   Config
	parts []int
	cache *vcache.Cache
}

// NewDBH returns a DBH partitioner.
func NewDBH(cfg Config) (*DBH, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &DBH{cfg: cfg, parts: cfg.allowed(), cache: cfg.newCache()}, nil
}

// Name implements Partitioner.
func (d *DBH) Name() string { return "dbh" }

// Cache implements Partitioner.
func (d *DBH) Cache() *vcache.Cache { return d.cache }

// Assign implements Partitioner.
func (d *DBH) Assign(e graph.Edge) int {
	du, dv := d.cache.Degree(e.Src), d.cache.Degree(e.Dst)
	pivot := e.Src
	switch {
	case du < dv:
		// hash the low-degree endpoint
	case dv < du:
		pivot = e.Dst
	default:
		// Tie: hash the lexicographically smaller id so the choice is
		// stable regardless of edge orientation.
		if e.Dst < e.Src {
			pivot = e.Dst
		}
	}
	p := d.parts[hashVertex(d.cfg.Seed, pivot)%uint64(len(d.parts))]
	d.cache.Assign(e, p)
	return p
}
