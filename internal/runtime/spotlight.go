package runtime

import (
	"fmt"
	"sync"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metric"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
)

// Spotlight partitioning (§III-D): when z partitioner instances load
// disjoint chunks of the graph in parallel, each instance is restricted to
// a *spread* of s partitions instead of all k. A small spread preserves
// stream locality (the paper measures up to 76-80% replication-degree
// reduction) and reduces score computations; s = k recovers the classic
// shared loading model.

// SpotlightConfig configures a parallel loading run.
type SpotlightConfig struct {
	// K is the global partition count.
	K int
	// Z is the number of parallel partitioner instances; each receives a
	// disjoint chunk of the edge stream (the paper uses z = 8, one per
	// machine).
	Z int
	// Spread is the number of partitions each instance may fill. K/Z gives
	// disjoint spotlight groups; K gives the classic full-spread loading.
	Spread int
	// Sequential forces the instances to run one after another instead of
	// in parallel; used by tests and deterministic latency accounting.
	Sequential bool
}

// Validate reports whether c describes a runnable spotlight: K and Z at
// least 1, Z dividing K, and Spread in [K/Z, K]. The executor checks it
// first; a caller that opens its streams at a cost (OpenFileStreams makes
// a counting pass over a text file) checks it before opening them.
func (c SpotlightConfig) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("runtime: spotlight K must be >= 1, got %d", c.K)
	}
	if c.Z < 1 {
		return fmt.Errorf("runtime: spotlight Z must be >= 1, got %d", c.Z)
	}
	if c.K%c.Z != 0 {
		return fmt.Errorf("runtime: spotlight requires Z (%d) to divide K (%d)", c.Z, c.K)
	}
	if c.Spread < c.K/c.Z || c.Spread > c.K {
		return fmt.Errorf("runtime: spotlight spread %d outside [K/Z=%d, K=%d]", c.Spread, c.K/c.Z, c.K)
	}
	return nil
}

// SpreadFor returns the partitions instance i ∈ [0,Z) may fill: a block of
// Spread partitions starting at i·(K/Z), wrapping modulo K. With
// Spread = K/Z the blocks are disjoint (full spotlight); growing Spread
// overlaps neighbouring blocks until Spread = K covers everything. Every
// partition is covered by at least one instance for any valid spread.
func (c SpotlightConfig) SpreadFor(i int) []int {
	stride := c.K / c.Z
	parts := make([]int, c.Spread)
	for j := 0; j < c.Spread; j++ {
		parts[j] = (i*stride + j) % c.K
	}
	return parts
}

// RunSpotlightStreamsStats partitions Z edge streams with Z parallel
// instances built by build(i, allowed) — instance i consumes streams[i] —
// and merges their assignments in instance order. It is the one executor
// of the paper's parallel loading model: the streams are in-memory chunks
// (ChunkStreams) or disjoint byte ranges of one graph file
// (OpenFileStreams), and Instances builds registry strategies for them;
// any Runner works. A stream that fails mid-pass fails the run even if its
// Runner ignored the stream error contract.
//
// stats[i] is instance i's Stats if its Runner implements Strategy (zero
// otherwise). With every instance scoring on the shared work-stealing
// pool, per-instance counters remain correctly attributed — each
// instance's score ops land in its own shard scratches no matter which
// pool worker executed them — so summing stats across instances
// (AggregateStats) neither double-counts nor loses pool-executed work.
func RunSpotlightStreamsStats(streams []stream.Stream, cfg SpotlightConfig, build func(i int, allowed []int) (Runner, error)) (*metrics.Assignment, []Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(streams) != cfg.Z {
		return nil, nil, fmt.Errorf("runtime: spotlight got %d streams for Z=%d instances", len(streams), cfg.Z)
	}
	runners := make([]Runner, cfg.Z)
	for i := range runners {
		r, err := build(i, cfg.SpreadFor(i))
		if err != nil {
			return nil, nil, fmt.Errorf("runtime: building spotlight instance %d: %w", i, err)
		}
		runners[i] = r
	}

	results := make([]*metrics.Assignment, cfg.Z)
	errs := make([]error, cfg.Z)
	runOne := func(i int) {
		results[i], errs[i] = runners[i].Run(streams[i])
		if errs[i] == nil {
			// Exhaustion with a pending stream error is a failure, never a
			// short success — enforce it here even for Runners that do not
			// check stream.Err themselves.
			errs[i] = stream.Err(streams[i])
		}
	}
	if cfg.Sequential {
		for i := range runners {
			runOne(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range runners {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
			}(i)
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("runtime: spotlight instance %d: %w", i, err)
		}
	}

	// A single instance's assignment is already the run's and is returned
	// as is: a merged copy would hold two O(m) assignments at the peak.
	// Only a K mismatch sends it through Merge, which rejects it.
	merged := results[0]
	if cfg.Z > 1 || merged.K != cfg.K {
		total := 0
		for _, res := range results {
			total += res.Len()
		}
		merged = metrics.NewAssignment(cfg.K, total)
		for _, res := range results {
			if err := merged.Merge(res); err != nil {
				return nil, nil, err
			}
		}
	}
	stats := make([]Stats, cfg.Z)
	for i, r := range runners {
		if st, ok := r.(Strategy); ok {
			stats[i] = st.Stats()
		}
	}
	return merged, stats, nil
}

// ChunkStreams splits an in-memory edge slice into z near-equal contiguous
// chunks (stream.Chunks), one stream per spotlight instance, mirroring the
// paper's parallel loading model where each worker machine streams its own
// chunk of the graph file. Fewer edges than z is an error — stream.Chunks
// would silently return fewer chunks, leaving the remaining spreads'
// partitions unreachable with no signal.
func ChunkStreams(edges []graph.Edge, z int) ([]stream.Stream, error) {
	if len(edges) < z {
		return nil, fmt.Errorf("runtime: spotlight needs at least Z=%d edges so every instance receives a chunk, got %d", z, len(edges))
	}
	chunks := stream.Chunks(edges, z)
	streams := make([]stream.Stream, len(chunks))
	for i, ch := range chunks {
		streams[i] = stream.FromEdges(ch)
	}
	return streams, nil
}

// OpenFileStreams plans the graph file at path — text edge list or ADWB
// binary, sniffed by the ingest layer — into z disjoint byte ranges and
// opens one segment stream per range (stream.PlanFile +
// stream.OpenSegment): the paper's Figure 3 deployment, where z loader
// machines each consume their own chunk of one large graph file. Text
// files are planned with one counting pass; binary files by record
// arithmetic on the header alone. With streaming strategies the edge list
// is never materialised: peak memory is z segment readers plus the
// per-instance vertex caches (the all-edge "ne" strategy collects its
// segment by design).
//
// With a non-nil reg every segment is metered: edges tick live per batch,
// so a flusher sampling the registry sees ingest progress mid-pass, the
// planned byte length lands up front, and exhaustion bumps the
// segments-done counter. The returned func closes every segment; on error
// nothing is left open.
func OpenFileStreams(path string, z int, reg *metric.Registry) ([]stream.Stream, func(), error) {
	ranges, err := stream.PlanFile(path, z)
	if err != nil {
		return nil, nil, err
	}
	segs := make([]stream.FileStream, 0, len(ranges))
	closeAll := func() {
		for _, s := range segs {
			s.Close()
		}
	}
	streams := make([]stream.Stream, len(ranges))
	for i, r := range ranges {
		seg, err := stream.OpenSegment(r)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		segs = append(segs, seg)
		streams[i] = seg
		if reg != nil {
			reg.Counter(stream.MetricBytesPlanned).Inc(r.End - r.Start)
			segsDone := reg.Counter(stream.MetricSegmentsDone)
			streams[i] = stream.NewMetered(seg, reg.Counter(stream.MetricEdgesRead), func() {
				segsDone.Inc(1)
			})
		}
	}
	return streams, closeAll, nil
}

// Instances returns the builder of RunSpotlightStreamsStats for Z
// registry instances of the named strategy under c: instance i gets spec
// with K defaulted to c.K, its spread as Allowed, the seed offset by i,
// and its share of the run-level ScoreWorkers and VertexBudgetBytes
// budgets. It sets no TotalEdgesHint: chunks and segments report their
// exact length through Remaining, and ADWISE takes m (Eq. 4) from there.
func (c SpotlightConfig) Instances(name string, spec Spec) func(i int, allowed []int) (Runner, error) {
	if spec.K == 0 {
		spec.K = c.K
	}
	shares := splitScoreWorkers(spec.ScoreWorkers, c.Z, c.Sequential)
	budgets := splitVertexBudget(spec.VertexBudgetBytes, c.Z)
	return func(i int, allowed []int) (Runner, error) {
		s := spec
		s.Allowed = allowed
		s.Seed = spec.Seed + uint64(i)
		s.ScoreWorkers = shares[i]
		s.VertexBudgetBytes = budgets[i]
		return New(name, s)
	}
}

// splitScoreWorkers resolves the per-instance logical scoring shard
// counts under parallel loading. With total == 0 (auto) every instance
// stays auto too — each resolves to GOMAXPROCS shards executing on the
// process-wide work-stealing pool, which arbitrates the machine's cores
// across instances dynamically, so there is nothing to divide and no core
// is ever stranded. An explicit total is a per-run budget: it is
// distributed across the z instances with the remainder spread over the
// first total%z instances (never the floor-division of the historical
// divideScoreWorkers, which stranded up to z−1 requested shards — 8
// cores, z=3 → 6 workers), with every instance getting at least 1.
// Sequential runs execute instances one at a time, so each may use the
// full explicit total.
func splitScoreWorkers(total, z int, sequential bool) []int {
	shares := make([]int, max(z, 1))
	if total == 0 {
		return shares // all auto
	}
	if sequential {
		for i := range shares {
			shares[i] = total
		}
		return shares
	}
	base, rem := total/len(shares), total%len(shares)
	for i := range shares {
		shares[i] = base
		if i < rem {
			shares[i]++
		}
		if shares[i] < 1 {
			shares[i] = 1
		}
	}
	return shares
}

// splitVertexBudget divides a run-level vertex-state byte budget across
// the z instances with remainder spread, like splitScoreWorkers. Unlike
// score workers there is no sequential exception: all z caches coexist
// for the whole run (each instance keeps its state until the merge), so
// the run-level envelope is their sum regardless of execution order.
// total 0 (unbounded) leaves every instance unbounded.
func splitVertexBudget(total int64, z int) []int64 {
	shares := make([]int64, max(z, 1))
	if total <= 0 {
		return shares // all unbounded
	}
	n := int64(len(shares))
	base, rem := total/n, total%n
	for i := range shares {
		shares[i] = base
		if int64(i) < rem {
			shares[i]++
		}
		if shares[i] < 1 {
			shares[i] = 1
		}
	}
	return shares
}
