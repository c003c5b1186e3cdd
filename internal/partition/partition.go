// Package partition implements the streaming vertex-cut partitioning
// framework of §II-B (edge universe, scoring, vertex cache) together with
// the single-edge baselines the paper evaluates against: Hash, 1D/2D,
// Grid (GraphBuilder), Greedy (PowerGraph), DBH, and HDRF, plus the
// all-edge NE heuristic used as a landscape reference point in Figure 1.
//
// The window-based ADWISE algorithm builds on this framework in
// internal/core.
package partition

import (
	"fmt"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/hashx"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
	"github.com/adwise-go/adwise/internal/vcache"
)

// Partitioner is a single-edge streaming partitioner: it decides a
// partition for each edge as it arrives, using only its vertex cache (state
// from previous assignments).
type Partitioner interface {
	// Name identifies the strategy (e.g. "hdrf").
	Name() string
	// Assign chooses a partition for e and records the assignment in the
	// vertex cache. The returned partition is in [0, K).
	Assign(e graph.Edge) int
	// Cache exposes the partitioner's vertex state.
	Cache() *vcache.Cache
}

// Config carries the settings shared by all streaming partitioners.
type Config struct {
	// K is the number of partitions in the global partitioning.
	K int
	// Allowed restricts assignments to a subset of partitions — the
	// "spread" of the spotlight optimization (§III-D). Empty means all of
	// 0..K-1.
	Allowed []int
	// Seed drives the hash functions of the hashing strategies.
	Seed uint64
	// VertexBudgetBytes caps the byte footprint of the vertex state. 0
	// (the default) leaves the cache unbounded; a positive budget makes it
	// evict low-degree vertices instead of outgrowing the budget (see
	// vcache.Cache).
	VertexBudgetBytes int64
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("partition: K must be >= 1, got %d", c.K)
	}
	for _, p := range c.Allowed {
		if p < 0 || p >= c.K {
			return fmt.Errorf("partition: allowed partition %d outside [0,%d)", p, c.K)
		}
	}
	return nil
}

// newCache builds the vertex state the config describes — the single
// construction path every strategy shares, so the budget knob applies
// uniformly.
func (c Config) newCache() *vcache.Cache {
	return vcache.New(c.K, c.VertexBudgetBytes)
}

// allowed returns the effective allowed-partition list.
func (c Config) allowed() []int {
	if len(c.Allowed) > 0 {
		out := make([]int, len(c.Allowed))
		copy(out, c.Allowed)
		return out
	}
	out := make([]int, c.K)
	for i := range out {
		out[i] = i
	}
	return out
}

// Run drains s through p and returns the resulting assignment. Edges are
// drawn in batches (stream.NextBatch) so the per-edge cost is one Assign
// call, not an extra interface dispatch into the stream. A stream that
// fails mid-pass (stream.Err) returns the error, never a silently-short
// assignment.
func Run(s stream.Stream, p Partitioner) (*metrics.Assignment, error) {
	hint := s.Remaining()
	if hint >= 0 {
		// Known-length stream: pre-size the vertex table too, so the pass
		// skips the doubling rehashes (a budgeted cache clamps this to its
		// budget).
		p.Cache().Reserve(vcache.VerticesHintForEdges(hint))
	} else {
		hint = 1024
	}
	a := metrics.NewAssignment(p.Cache().K(), int(hint))
	var buf [stream.DefaultBatchSize]graph.Edge
	for {
		n := stream.NextBatch(s, buf[:])
		if n == 0 {
			if err := stream.Err(s); err != nil {
				return nil, fmt.Errorf("partition: edge stream failed after %d assignments: %w", a.Len(), err)
			}
			return a, nil
		}
		for _, e := range buf[:n] {
			a.Add(e, p.Assign(e))
		}
	}
}

func hashVertex(seed uint64, v graph.VertexID) uint64 {
	return hashx.SplitMix64(seed ^ uint64(v))
}

func hashEdge(seed uint64, e graph.Edge) uint64 {
	return hashx.SplitMix64(seed ^ (uint64(e.Src)<<32 | uint64(e.Dst)))
}

// leastLoaded returns the partition with the smallest size among parts,
// breaking ties by lower partition id. parts must be non-empty.
func leastLoaded(c *vcache.Cache, parts []int) int {
	best := parts[0]
	bestSize := c.Size(best)
	for _, p := range parts[1:] {
		if s := c.Size(p); s < bestSize {
			best, bestSize = p, s
		}
	}
	return best
}
