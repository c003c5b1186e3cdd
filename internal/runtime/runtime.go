// Package runtime is the unified strategy runtime of the reproduction: it
// treats every partitioner — the single-edge baselines and window-based
// ADWISE alike — as one interchangeable Strategy that streams edges into an
// assignment, exactly the view of the paper's parallel loading model
// (§III-D) where z instances each consume a chunk of the graph.
//
// The package layers as
//
//	Strategy (name, run-over-stream, stats)
//	  ↑ registry (name → builder, Spec carries the shared knobs)
//	  ↑ spotlight executor (RunSpotlightStreamsStats: z instances,
//	    restricted spread; streams from ChunkStreams or OpenFileStreams,
//	    registry instances from SpotlightConfig.Instances)
//	  ↑ vertex cache + batched edge streams (the measured hot paths)
//
// Everything above this package — the bench harness, both CLIs, the public
// facade — constructs partitioners through the registry instead of
// hand-rolled string switches.
package runtime

import (
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/partition"
	"github.com/adwise-go/adwise/internal/stream"
)

// Runner is the minimal run-over-stream capability: one partitioner
// instance consuming an edge stream and producing an assignment over the
// global partition set. It is the unit the spotlight executor schedules.
type Runner interface {
	Run(s stream.Stream) (*metrics.Assignment, error)
}

// Strategy is a named, stats-reporting Runner — the single abstraction all
// partitioning strategies implement. Instances are single-use: one Run per
// instance, with Stats valid after Run returns.
type Strategy interface {
	Runner
	// Name identifies the strategy ("hdrf", "adwise", ...).
	Name() string
	// Stats reports what the completed Run did.
	Stats() Stats
}

// Stats is the strategy-independent account of one partitioning pass.
// Fields that a strategy does not track are zero (e.g. ScoreComputations
// for the hashing family, window sizes for single-edge strategies).
type Stats struct {
	// Assignments is the number of edges assigned.
	Assignments int64
	// Vertices is the number of distinct vertices seen.
	Vertices int
	// ScoreComputations counts edge score evaluations (each covering all
	// allowed partitions).
	ScoreComputations int64
	// PartitioningLatency is the wall-clock duration of the pass.
	PartitioningLatency time.Duration
	// FinalWindow and PeakWindow describe the adaptive window trajectory
	// (window strategies only).
	FinalWindow, PeakWindow int
	// FinalLambda is the balancing weight after the last assignment
	// (adaptive-λ strategies only).
	FinalLambda float64
	// ScoreWorkers is the resolved logical scoring shard count (window
	// strategies only; 0 for strategies without a scoring pool).
	ScoreWorkers int
	// ParallelScorePasses counts scoring passes that ran sharded on the
	// scoring pool; PoolScoreOps is the share of ScoreComputations those
	// passes performed. Per-instance attribution holds even on the shared
	// process-wide pool: ops land in the instance's own shard scratches no
	// matter which pool worker executed them.
	ParallelScorePasses int64
	PoolScoreOps        int64
	// StolenScoreShards counts pool-pass shards executed by pool workers
	// rather than the instance's own goroutine — >0 means the instance
	// actually borrowed cores (the work-stealing flex under spotlight).
	StolenScoreShards int64
	// EvictedVertices counts vertex-state evictions under a vertex budget
	// (0 on the unbounded default).
	EvictedVertices int64
	// CacheBytes and PeakCacheBytes are the final and peak tracked byte
	// footprints of the vertex state.
	CacheBytes, PeakCacheBytes int64
}

// AggregateStats folds per-instance spotlight stats into one run-level
// view: throughput counters are summed (safe against double-counting —
// see RunSpotlightStreamsStats), latency and window peaks are maximums
// (instances run concurrently; the slowest one bounds the run), and
// FinalLambda is left zero because z independent λ trajectories have no
// meaningful single final value.
func AggregateStats(stats []Stats) Stats {
	var agg Stats
	for _, st := range stats {
		agg.Assignments += st.Assignments
		agg.Vertices += st.Vertices
		agg.ScoreComputations += st.ScoreComputations
		agg.ParallelScorePasses += st.ParallelScorePasses
		agg.PoolScoreOps += st.PoolScoreOps
		agg.StolenScoreShards += st.StolenScoreShards
		agg.ScoreWorkers += st.ScoreWorkers
		// Byte footprints sum: the z caches coexist for the run, so the
		// run-level envelope is their total.
		agg.EvictedVertices += st.EvictedVertices
		agg.CacheBytes += st.CacheBytes
		agg.PeakCacheBytes += st.PeakCacheBytes
		if st.PartitioningLatency > agg.PartitioningLatency {
			agg.PartitioningLatency = st.PartitioningLatency
		}
		if st.FinalWindow > agg.FinalWindow {
			agg.FinalWindow = st.FinalWindow
		}
		if st.PeakWindow > agg.PeakWindow {
			agg.PeakWindow = st.PeakWindow
		}
	}
	return agg
}

// partitionerStrategy adapts a single-edge partition.Partitioner to
// Strategy via the batched partition.Run loop.
type partitionerStrategy struct {
	p     partition.Partitioner
	clk   clock.Clock
	stats Stats
}

// FromPartitioner wraps a single-edge streaming partitioner as a Strategy.
// Latency is measured on the real clock.
func FromPartitioner(p partition.Partitioner) Strategy {
	return &partitionerStrategy{p: p, clk: clock.Real{}}
}

func (ps *partitionerStrategy) Name() string { return ps.p.Name() }

func (ps *partitionerStrategy) Run(s stream.Stream) (*metrics.Assignment, error) {
	start := ps.clk.Now()
	a, err := partition.Run(s, ps.p)
	if err != nil {
		return nil, err
	}
	c := ps.p.Cache()
	ps.stats = Stats{
		Assignments:         c.Assigned(),
		Vertices:            c.Vertices(),
		PartitioningLatency: ps.clk.Now().Sub(start),
		EvictedVertices:     c.EvictedVertices(),
		CacheBytes:          c.Bytes(),
		PeakCacheBytes:      c.PeakBytes(),
	}
	return a, nil
}

func (ps *partitionerStrategy) Stats() Stats { return ps.stats }

// Partitioner exposes the wrapped single-edge partitioner, for callers that
// need the per-edge Assign interface (e.g. incremental pipelines).
func (ps *partitionerStrategy) Partitioner() partition.Partitioner { return ps.p }

// adwiseStrategy adapts core.Adwise (which reports the richer core.RunStats)
// to the uniform Strategy surface.
type adwiseStrategy struct {
	*core.Adwise
}

func (a adwiseStrategy) Stats() Stats {
	st := a.Adwise.Stats()
	var poolOps int64
	for _, ops := range st.WorkerScoreOps {
		poolOps += ops
	}
	return Stats{
		Assignments:         st.Assignments,
		Vertices:            a.Cache().Vertices(),
		ScoreComputations:   st.ScoreComputations,
		PartitioningLatency: st.PartitioningLatency,
		FinalWindow:         st.FinalWindow,
		PeakWindow:          st.PeakWindow,
		FinalLambda:         st.FinalLambda,
		ScoreWorkers:        st.ScoreWorkers,
		ParallelScorePasses: st.ParallelScorePasses,
		PoolScoreOps:        poolOps,
		StolenScoreShards:   st.StolenScoreShards,
		EvictedVertices:     st.EvictedVertices,
		CacheBytes:          st.CacheBytes,
		PeakCacheBytes:      st.PeakCacheBytes,
	}
}

// Detail returns the full ADWISE run statistics (window trace, lazy
// traversal counters) behind the uniform Stats.
func (a adwiseStrategy) Detail() core.RunStats { return a.Adwise.Stats() }

// neStrategy runs the all-edge neighbourhood-expansion heuristic under the
// Strategy interface by materialising the stream first. It is the Figure 1
// "high quality, super-linear latency" reference point; unlike the
// streaming strategies it needs the whole chunk in memory. Under a
// restricted spotlight spread it grows len(allowed) partitions and remaps
// them onto the allowed global ids, so NE composes with parallel loading
// like every other strategy.
type neStrategy struct {
	k       int
	allowed []int
	seed    uint64
	clk     clock.Clock
	stats   Stats
}

func (n *neStrategy) Name() string { return "ne" }

func (n *neStrategy) Run(s stream.Stream) (*metrics.Assignment, error) {
	start := n.clk.Now()
	edges, err := stream.Collect(s)
	if err != nil {
		return nil, err
	}
	g, err := graph.New(edges)
	if err != nil {
		return nil, err
	}
	local := n.k
	if len(n.allowed) > 0 {
		local = len(n.allowed)
	}
	a, err := partition.NE{}.Partition(g, local, n.seed)
	if err != nil {
		return nil, err
	}
	if len(n.allowed) > 0 {
		remapped := metrics.NewAssignment(n.k, a.Len())
		for i, e := range a.Edges {
			remapped.Add(e, n.allowed[a.Parts[i]])
		}
		a = remapped
	}
	n.stats = Stats{
		Assignments:         int64(a.Len()),
		Vertices:            g.V(),
		PartitioningLatency: n.clk.Now().Sub(start),
	}
	return a, nil
}

func (n *neStrategy) Stats() Stats { return n.stats }
