package core

import (
	"fmt"
	gort "runtime"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metric"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/scorepool"
	"github.com/adwise-go/adwise/internal/stream"
	"github.com/adwise-go/adwise/internal/vcache"
)

// Defaults for the tunables of §III. The paper fixes ε ∈ [0,1] "small" for
// the candidate threshold and clamps λ to [0.4, 5] (Eq. 4).
const (
	DefaultEpsilon       = 0.1
	DefaultBalanceEps    = 1.0
	DefaultLambdaMin     = 0.4
	DefaultLambdaMax     = 5.0
	DefaultInitialLambda = 1.0
	DefaultMaxWindow     = 1 << 14
	DefaultMaxCandidates = 64
	// DefaultRefillBatch caps how many fresh edges one refill pass stages
	// and scores together. Large enough that a full-deficit refill of the
	// default window amortises the pool dispatch; small enough that the
	// staging buffer stays cache-resident.
	DefaultRefillBatch = 2048
)

type config struct {
	k             int
	allowed       []int
	latencyPref   time.Duration // L; 0 means "as fast as possible" → single-edge behaviour
	clk           clock.Clock
	epsilon       float64 // ε in Θ = g_avg + ε
	balanceEps    float64 // ε in Eq. 3
	initialLambda float64
	lambdaMin     float64
	lambdaMax     float64
	clustering    bool
	initialWindow int
	maxWindow     int
	fixedWindow   bool // disable adaptation (ablation)
	maxCandidates int
	lazy          bool  // lazy window traversal; eager rescans everything (ablation)
	totalEdges    int64 // m hint when the stream cannot report it
	scoreWorkers  int   // window-scoring logical shards; 0 = auto (GOMAXPROCS)
	perEdgeRefill bool  // serial one-edge-at-a-time refill (reference/ablation)
	refillBatch   int   // refill staging cap; 0 = DefaultRefillBatch
	vertexBudget  int64 // vertex-state byte budget; 0 = unbounded cache
	pool          *scorepool.Pool
	poolSet       bool             // WithScorePool was used (nil is a meaningful value)
	metrics       *metric.Registry // nil → no telemetry published
}

// Option configures an ADWISE partitioner.
type Option func(*config)

// WithLatencyPreference sets the partitioning latency preference L: the
// adaptive window grows only while the run is on track to finish within L
// (condition C2). Zero keeps the window at its initial size floor,
// degenerating to single-edge streaming as described in §III-A.
func WithLatencyPreference(l time.Duration) Option {
	return func(c *config) { c.latencyPref = l }
}

// WithClock substitutes the time source used for latency accounting;
// tests use a fake clock to drive the adaptation deterministically.
func WithClock(clk clock.Clock) Option {
	return func(c *config) { c.clk = clk }
}

// WithEpsilon sets ε in the candidate threshold Θ = g_avg + ε.
func WithEpsilon(eps float64) Option {
	return func(c *config) { c.epsilon = eps }
}

// WithClusteringScore toggles the clustering score CS (Eq. 6). The paper
// switches it off for graphs with negligible clustering (Orkut).
func WithClusteringScore(on bool) Option {
	return func(c *config) { c.clustering = on }
}

// WithAllowedPartitions restricts assignments to a subset of partitions —
// the spotlight spread (§III-D).
func WithAllowedPartitions(parts []int) Option {
	return func(c *config) { c.allowed = parts }
}

// WithInitialLambda sets the starting balancing weight λ.
func WithInitialLambda(l float64) Option {
	return func(c *config) { c.initialLambda = l }
}

// WithLambdaBounds overrides the λ clamp interval (paper: [0.4, 5]).
func WithLambdaBounds(lo, hi float64) Option {
	return func(c *config) { c.lambdaMin, c.lambdaMax = lo, hi }
}

// WithFixedLambda pins λ to the given value by collapsing the clamp
// interval — the "fixed λ" ablation, matching HDRF's static parameter.
func WithFixedLambda(l float64) Option {
	return func(c *config) {
		c.initialLambda = l
		c.lambdaMin, c.lambdaMax = l, l
	}
}

// WithInitialWindow sets the starting window size (default 1, as in
// Algorithm 1). The window never shrinks below this size, so a fixed-size
// window can be emulated together with WithFixedWindow.
func WithInitialWindow(w int) Option {
	return func(c *config) { c.initialWindow = w }
}

// WithMaxWindow caps the window size.
func WithMaxWindow(w int) Option {
	return func(c *config) { c.maxWindow = w }
}

// WithFixedWindow disables the adaptive sizing entirely, keeping the
// window at its initial size — the fixed-window ablation.
func WithFixedWindow() Option {
	return func(c *config) { c.fixedWindow = true }
}

// WithMaxCandidates bounds the lazy-traversal candidate set |C|.
func WithMaxCandidates(n int) Option {
	return func(c *config) { c.maxCandidates = n }
}

// WithEagerTraversal disables lazy traversal: every window edge is
// re-scored on every assignment (the O(w·|P|) baseline of §III-B, used by
// the lazy-vs-eager ablation).
func WithEagerTraversal() Option {
	return func(c *config) { c.lazy = false }
}

// WithTotalEdgesHint supplies m (the stream length) when the stream cannot
// report it; Eq. 4's progress term α and condition C2 depend on it.
func WithTotalEdgesHint(m int64) Option {
	return func(c *config) { c.totalEdges = m }
}

// WithScoreWorkers sets the number of logical shards window scoring
// passes (candidate rescores, secondary rescans, cached-score scans) are
// split into. 0 (the default) resolves to GOMAXPROCS at construction;
// 1 forces fully serial scoring. Shards execute on the process-wide
// work-stealing pool (see WithScorePool), so under parallel loading the
// machine's cores flow to whichever instance has work — there is no need
// to divide cores among instances. Any shard count produces edge-for-edge
// identical assignments — sharding uses fixed boundaries and a
// deterministic shard-order reduction — so the knob trades only
// wall-clock for cores.
func WithScoreWorkers(n int) Option {
	return func(c *config) { c.scoreWorkers = n }
}

// WithPerEdgeRefill restores the serial refill: the window draws one edge
// at a time and scores it on the submitting goroutine. The default scores
// each refill batch as one pool pass; the two paths are edge-for-edge
// identical (the equivalence the refill property tests pin down), so this
// knob exists for ablation and as the reference in those tests, not as a
// correctness escape hatch.
func WithPerEdgeRefill() Option {
	return func(c *config) { c.perEdgeRefill = true }
}

// WithRefillBatch caps how many fresh edges one batched refill pass
// stages and scores together (default DefaultRefillBatch). Smaller caps
// bound staging memory; the batch boundary can never change assignments.
func WithRefillBatch(n int) Option {
	return func(c *config) { c.refillBatch = n }
}

// WithVertexBudget caps the byte footprint of the vertex state. The
// default (0, or negative) leaves the cache unbounded, so its memory grows
// with the number of distinct vertices. Under a positive budget the cache
// (vcache.Cache) evicts low-partial-degree vertices HEP-style when the
// table would outgrow the budget instead of growing, so memory stays fixed
// while scoring treats evicted vertices as unseen — replication quality
// degrades gracefully on power-law graphs (see the bench memory
// experiment). Eviction makes assignments depend on the budget; runs with
// the same positive budget remain deterministic.
func WithVertexBudget(bytes int64) Option {
	return func(c *config) { c.vertexBudget = bytes }
}

// WithScorePool overrides the pool scoring shards execute on. The default
// (when more than one shard is configured) is the process-wide shared
// work-stealing pool, scorepool.Shared(). Passing nil forces every pass
// inline on the caller regardless of the shard count; passing a private
// pool pins the instance to that pool's workers — the bench harness uses
// this to reproduce the historical static cores/z split for comparison.
// Determinism is unaffected either way: pool choice, like worker count,
// can never change assignments.
func WithScorePool(p *scorepool.Pool) Option {
	return func(c *config) { c.pool, c.poolSet = p, true }
}

// Adwise is the ADWISE streaming partitioner. An instance carries the
// vertex cache accumulated over one stream pass; create a fresh instance
// per Run.
type Adwise struct {
	cfg    config
	parts  []int
	cache  *vcache.Cache
	scorer *scorer
	win    *window
	stats  RunStats
	ran    bool
}

// RunStats reports what one partitioning pass did.
type RunStats struct {
	// Assignments is the number of edges assigned.
	Assignments int64
	// ScoreComputations counts edge score evaluations (each covering all
	// allowed partitions).
	ScoreComputations int64
	// PartitioningLatency is the wall-clock (or fake-clock) duration of
	// the pass.
	PartitioningLatency time.Duration
	// FinalWindow and PeakWindow describe the adaptive window trajectory.
	FinalWindow, PeakWindow int
	// WindowTrace records every window resize as (edge index, new size).
	WindowTrace []WindowChange
	// FinalLambda is λ after the last assignment.
	FinalLambda float64
	// MeanAssignScore is the average g(ê,p̂) over all assignments.
	MeanAssignScore float64
	// Lazy-traversal counters.
	Promotions, Demotions, Reassessments, SecondaryRescans int64
	// ScoreWorkers is the resolved logical scoring shard count (≥ 1).
	ScoreWorkers int
	// ParallelScorePasses counts scoring passes that actually ran sharded
	// on the scoring pool (small passes run inline on the caller).
	ParallelScorePasses int64
	// StolenScoreShards counts shards of this instance's pool passes that
	// were executed by pool workers rather than the instance's own
	// goroutine — the work-stealing flex that lets a dense-segment
	// instance borrow idle cores under parallel loading.
	StolenScoreShards int64
	// PeakPassHelpers is the largest number of distinct pool workers that
	// served a single one of this instance's passes.
	PeakPassHelpers int
	// WorkerScoreOps is the per-logical-shard share of ScoreComputations
	// done on pool passes (index = shard id; shard 0 also runs the inline
	// passes). Shard scratches are owned by this instance, so the counters
	// attribute ops to the instance even when a shared pool executed them.
	// Serial one-edge rescores are accounted to ScoreComputations only.
	WorkerScoreOps []int64
	// RefillPasses counts batched window refills (one staged batch scored
	// and inserted per pass); zero under WithPerEdgeRefill.
	RefillPasses int64
	// BatchedAdds counts edges that entered the window through batched
	// refill passes; under the default refill this equals Assignments on a
	// clean run, and zero under WithPerEdgeRefill.
	BatchedAdds int64
	// PhaseScoreOps splits ScoreComputations by the window pass that spent
	// each score op; its fields sum to ScoreComputations.
	PhaseScoreOps PhaseScoreOps
	// LazySelections counts lazy candidate selections (one per pop that
	// reached the candidate set). LazyFirstTryHits counts those whose first
	// refreshed leader held; LazyRetries counts the leader refreshes after
	// the first; LazyFallbacks counts the selections that gave up and
	// rescored every candidate. Lazy-leader score ops are LazySelections +
	// LazyRetries.
	LazySelections, LazyFirstTryHits, LazyRetries, LazyFallbacks int64
	// ClusterWalkEvals and ClusterCountEvals split the clustering-score
	// evaluations by the producer that served them: the walk over both
	// endpoint lists, or the maintained neighbour counts. They sum to the
	// score ops of a run with the clustering score on, and are zero with
	// it off.
	ClusterWalkEvals, ClusterCountEvals int64
	// CountEngagements counts how often the window engaged the maintained
	// neighbour counts because its measured neighbourhoods were large.
	CountEngagements int64
	// EvictedVertices counts vertex-state evictions under WithVertexBudget
	// (0 on the unbounded default).
	EvictedVertices int64
	// CacheBytes and PeakCacheBytes are the final and peak tracked byte
	// footprints of the vertex state.
	CacheBytes, PeakCacheBytes int64
}

// PhaseScoreOps counts score ops by the window pass that spent them.
type PhaseScoreOps struct {
	// Refill scores fresh edges as they enter the window.
	Refill int64
	// Leader refreshes the cached-score leader of a lazy selection.
	Leader int64
	// Rescore refreshes every candidate: each eager pop and each lazy
	// selection that fell back.
	Rescore int64
	// Rescan refreshes every secondary entry when the candidates run dry.
	Rescan int64
	// Reassess refreshes the secondary entries of a vertex that gained a
	// replica.
	Reassess int64
	// PopFresh re-scores the winner popped from a fallback set.
	PopFresh int64
}

// Sum returns the total score ops over all phases.
func (p PhaseScoreOps) Sum() int64 {
	return p.Refill + p.Leader + p.Rescore + p.Rescan + p.Reassess + p.PopFresh
}

// WindowChange is one adaptive window resize event.
type WindowChange struct {
	AtEdge  int64
	NewSize int
}

// New returns an ADWISE partitioner for k partitions.
func New(k int, opts ...Option) (*Adwise, error) {
	cfg := config{
		k:             k,
		clk:           clock.Real{},
		epsilon:       DefaultEpsilon,
		balanceEps:    DefaultBalanceEps,
		initialLambda: DefaultInitialLambda,
		lambdaMin:     DefaultLambdaMin,
		lambdaMax:     DefaultLambdaMax,
		clustering:    true,
		initialWindow: 1,
		maxWindow:     DefaultMaxWindow,
		maxCandidates: DefaultMaxCandidates,
		lazy:          true,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: partition count must be >= 1, got %d", k)
	}
	for _, p := range cfg.allowed {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("core: allowed partition %d outside [0,%d)", p, k)
		}
	}
	if cfg.initialWindow < 1 {
		return nil, fmt.Errorf("core: initial window must be >= 1, got %d", cfg.initialWindow)
	}
	if cfg.maxWindow < cfg.initialWindow {
		return nil, fmt.Errorf("core: max window %d below initial window %d", cfg.maxWindow, cfg.initialWindow)
	}
	if cfg.maxCandidates < 1 {
		return nil, fmt.Errorf("core: max candidates must be >= 1, got %d", cfg.maxCandidates)
	}
	if cfg.epsilon < 0 || cfg.epsilon > 1 {
		return nil, fmt.Errorf("core: epsilon %v outside [0,1]", cfg.epsilon)
	}
	if cfg.lambdaMin > cfg.lambdaMax {
		return nil, fmt.Errorf("core: lambda bounds inverted [%v,%v]", cfg.lambdaMin, cfg.lambdaMax)
	}
	if cfg.scoreWorkers < 0 {
		return nil, fmt.Errorf("core: score workers must be >= 0 (0 = auto), got %d", cfg.scoreWorkers)
	}
	if cfg.refillBatch < 0 {
		return nil, fmt.Errorf("core: refill batch must be >= 0 (0 = default), got %d", cfg.refillBatch)
	}
	parts := cfg.allowed
	if len(parts) == 0 {
		parts = make([]int, k)
		for i := range parts {
			parts[i] = i
		}
	}
	cache := vcache.New(k, cfg.vertexBudget)
	sc := newScorer(cache, parts, cfg)
	maxCand := cfg.maxCandidates
	if !cfg.lazy {
		// Eager traversal: every edge is a candidate, re-scored each pop.
		maxCand = int(^uint(0) >> 1)
	}
	shards := cfg.scoreWorkers
	if shards == 0 {
		shards = gort.GOMAXPROCS(0)
	}
	execPool := cfg.pool
	if !cfg.poolSet && shards > 1 {
		execPool = scorepool.Shared()
	}
	pool := newScorePool(execPool, shards, len(parts))
	if cfg.metrics != nil {
		pool.mPasses = cfg.metrics.Counter(MetricPoolPasses)
		pool.mStolen = cfg.metrics.Counter(MetricStolenShards)
	}
	return &Adwise{
		cfg:    cfg,
		parts:  parts,
		cache:  cache,
		scorer: sc,
		win:    newWindow(sc, pool, cfg.epsilon, maxCand, !cfg.lazy),
	}, nil
}

// Cache exposes the vertex state (for metrics and tests).
func (a *Adwise) Cache() *vcache.Cache { return a.cache }

// Stats returns the statistics of the completed Run.
func (a *Adwise) Stats() RunStats { return a.stats }

// Name identifies the strategy.
func (a *Adwise) Name() string { return "adwise" }

// Run consumes the stream and returns the assignment. It implements
// Algorithm 1: fill the window, repeatedly assign the best-scoring edge,
// and adapt the window size every w assignments via conditions (C1) and
// (C2). Run may be called once per instance.
func (a *Adwise) Run(s stream.Stream) (*metrics.Assignment, error) {
	if a.ran {
		return nil, fmt.Errorf("core: Adwise instance already ran; create a new instance per pass")
	}
	a.ran = true

	// The window refill draws one edge at a time; buffering batches the
	// pulls from the underlying stream (file, chunk, …) and devirtualizes
	// the per-edge call to a concrete method. Buffered.Remaining counts
	// buffered-but-unconsumed edges, so condition (C2) stays exact.
	src := stream.NewBuffered(s, stream.DefaultBatchSize)

	hint := src.Remaining()
	if a.scorer.totalEdges <= 0 && hint >= 0 {
		a.scorer.totalEdges = hint
	}
	if hint < 0 {
		// The stream cannot report its length (Remaining() < 0) and no
		// WithTotalEdgesHint was given. The assignment sizing contract for
		// that case: start from the largest edge population the
		// configuration itself implies — the window bound — and let the
		// assignment grow geometrically past it. maxWindow dominates
		// initialWindow by the New validation, so it is the sharper floor.
		hint = int64(a.cfg.maxWindow)
		if a.scorer.totalEdges > 0 {
			hint = a.scorer.totalEdges
		}
	}
	totalEdges := a.scorer.totalEdges

	// Pre-size the vertex table from the same edge-count hint that sizes
	// the assignment, so known-length streams skip the doubling rehashes
	// (a budgeted cache clamps the reservation to its budget).
	a.cache.Reserve(vcache.VerticesHintForEdges(hint))

	asn := metrics.NewAssignment(a.cfg.k, int(hint))

	start := a.cfg.clk.Now()
	deadline := start.Add(a.cfg.latencyPref)

	w := a.cfg.initialWindow
	a.stats.PeakWindow = w

	// (C1) bookkeeping: average assignment score of the current and the
	// previous adaptation period.
	var (
		periodScore   float64
		periodCount   int64
		prevAvgScore  float64
		havePrevAvg   bool
		periodStart   = start
		totalScoreSum float64
	)

	// Refill is two-phase by default: drain the window deficit from the
	// buffered stream in one NextBatch sweep, score the whole batch as a
	// single pool pass (window.addBatch), then classify/insert serially in
	// stream order. WithPerEdgeRefill keeps the historical one-edge loop;
	// both paths are edge-for-edge identical.
	batchCap := a.cfg.refillBatch
	if batchCap <= 0 {
		batchCap = DefaultRefillBatch
	}
	var refillBuf []graph.Edge
	if !a.cfg.perEdgeRefill {
		refillBuf = make([]graph.Edge, batchCap)
	}
	var mRefillPasses, mBatchedAdds *metric.Counter
	var mBatchSize *metric.Gauge
	if a.cfg.metrics != nil {
		mRefillPasses = a.cfg.metrics.Counter(MetricRefillPasses)
		mBatchedAdds = a.cfg.metrics.Counter(MetricRefillBatchedAdds)
		mBatchSize = a.cfg.metrics.Gauge(MetricRefillBatchSize)
	}

	refill := func() {
		if a.cfg.perEdgeRefill {
			for a.win.len() < w {
				e, ok := src.Next()
				if !ok {
					return
				}
				a.win.add(e)
			}
			return
		}
		for a.win.len() < w {
			d := w - a.win.len()
			if d > batchCap {
				d = batchCap
			}
			buf := refillBuf[:d]
			filled := 0
			for filled < d {
				n := src.NextBatch(buf[filled:])
				if n == 0 {
					break
				}
				filled += n
			}
			if filled == 0 {
				return
			}
			a.win.addBatch(buf[:filled])
			a.stats.RefillPasses++
			a.stats.BatchedAdds += int64(filled)
			if mRefillPasses != nil {
				mRefillPasses.Inc(1)
				mBatchedAdds.Inc(int64(filled))
				mBatchSize.Set(int64(filled))
			}
			if filled < d {
				// Short batch: the stream is exhausted (or failed — Err is
				// checked after the window drains).
				return
			}
		}
	}

	refill()
	for a.win.len() > 0 {
		e, p, gBest, ok := a.win.popBest()
		if !ok {
			break
		}
		newSrc, newDst := a.win.commit(e, p)
		asn.Add(e, p)
		a.stats.Assignments++
		// The popped entry's score is the g(ê,p̂) that drives (C1).
		periodScore += gBest
		totalScoreSum += gBest
		periodCount++

		if a.cfg.lazy {
			if newSrc {
				a.win.reassess(e.Src)
			}
			if newDst && e.Dst != e.Src {
				a.win.reassess(e.Dst)
			}
		}

		// Adaptive window check every w assignments (Alg. 1 lines 11-16).
		if !a.cfg.fixedWindow && periodCount >= int64(w) {
			now := a.cfg.clk.Now()
			elapsed := now.Sub(periodStart)
			latPerEdge := elapsed / time.Duration(periodCount)

			curAvg := periodScore / float64(periodCount)
			c1 := !havePrevAvg || curAvg >= prevAvgScore
			c2 := a.c2(now, deadline, latPerEdge, src, totalEdges)

			switch {
			case c1 && c2 && w < a.cfg.maxWindow:
				w *= 2
				if w > a.cfg.maxWindow {
					w = a.cfg.maxWindow
				}
				a.recordResize(w)
			case !c2 && w > a.cfg.initialWindow:
				w /= 2
				if w < a.cfg.initialWindow {
					w = a.cfg.initialWindow
				}
				a.recordResize(w)
			}
			prevAvgScore, havePrevAvg = curAvg, true
			periodScore, periodCount = 0, 0
			periodStart = now
		}
		refill()
	}

	// The window drains when the stream stops delivering — which is either
	// clean exhaustion or a mid-stream failure. Treating the latter as
	// success would silently partition a prefix of the graph.
	if err := src.Err(); err != nil {
		return nil, fmt.Errorf("core: edge stream failed after %d assignments: %w", a.stats.Assignments, err)
	}

	a.stats.FinalWindow = w
	a.stats.PartitioningLatency = a.cfg.clk.Now().Sub(start)
	a.stats.ScoreComputations = a.scorer.prime.scoreOps + a.win.pool.totalOps()
	a.stats.FinalLambda = a.scorer.lambda
	a.stats.ScoreWorkers = a.win.pool.n
	a.stats.ParallelScorePasses = a.win.pool.passes
	a.stats.StolenScoreShards = a.win.pool.stolen
	a.stats.PeakPassHelpers = a.win.pool.helpersPeak
	a.stats.WorkerScoreOps = a.win.pool.workerOps()
	if a.stats.Assignments > 0 {
		a.stats.MeanAssignScore = totalScoreSum / float64(a.stats.Assignments)
	}
	a.stats.Promotions = a.win.promotions
	a.stats.Demotions = a.win.demotions
	a.stats.Reassessments = a.win.reassessments
	a.stats.SecondaryRescans = a.win.rescans
	a.win.ledger.fill(&a.stats)
	a.stats.EvictedVertices = a.cache.EvictedVertices()
	a.stats.CacheBytes = a.cache.Bytes()
	a.stats.PeakCacheBytes = a.cache.PeakBytes()
	a.publishRunMetrics()
	return asn, nil
}

// c2 evaluates condition (C2): the latency preference can still be met,
// i.e. lat_w < L′/|E′| with L′ the time left until the deadline and |E′|
// the edges still to assign (stream remainder plus window fill).
func (a *Adwise) c2(now, deadline time.Time, latPerEdge time.Duration, s stream.Stream, totalEdges int64) bool {
	if a.cfg.latencyPref <= 0 {
		return false
	}
	left := deadline.Sub(now)
	if left <= 0 {
		return false
	}
	remaining := s.Remaining()
	if remaining < 0 {
		if totalEdges > 0 {
			remaining = totalEdges - a.stats.Assignments
		} else {
			remaining = 0
		}
	}
	remaining += int64(a.win.len())
	if remaining <= 0 {
		return true
	}
	budgetPerEdge := left / time.Duration(remaining)
	return latPerEdge < budgetPerEdge
}

func (a *Adwise) recordResize(newSize int) {
	if newSize > a.stats.PeakWindow {
		a.stats.PeakWindow = newSize
	}
	a.stats.WindowTrace = append(a.stats.WindowTrace, WindowChange{
		AtEdge:  a.stats.Assignments,
		NewSize: newSize,
	})
}
