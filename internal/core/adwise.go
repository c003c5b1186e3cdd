package core

import (
	"fmt"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/metric"
	"github.com/adwise-go/adwise/internal/metrics"
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
	lazy          bool             // lazy window traversal; eager rescans everything (ablation)
	vertexBudget  int64            // vertex-state byte budget; 0 = unbounded cache
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

// Adwise is the ADWISE streaming partitioner. An instance carries the
// vertex cache accumulated over one stream pass; create a fresh instance
// per Run. Run scores the window on the caller's goroutine: parallel
// loading runs z instances side by side (internal/runtime), not one
// instance on several cores.
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
	// RefillPasses and BatchedAdds are always zero: the window refills one
	// edge at a time, so there are no batched refill passes to count.
	//
	// Deprecated: the repository benchmark (perfbench/prog/part.go) still
	// reads both fields; they go once a benchmark change drops its
	// core.refill_passes and core.batched_adds metrics.
	RefillPasses, BatchedAdds int64
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
	return &Adwise{
		cfg:    cfg,
		parts:  parts,
		cache:  cache,
		scorer: sc,
		win:    newWindow(sc, cfg.epsilon, maxCand, !cfg.lazy),
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

	// The stream length is m in Eq. 4's progress term α.
	m, err := stream.Len(s)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a.scorer.totalEdges = m

	// The window refill draws one edge at a time; buffering batches the
	// pulls from the underlying stream (file, chunk, …) and devirtualizes
	// the per-edge call to a concrete method. Buffered.Remaining counts
	// buffered-but-unconsumed edges, so condition (C2) stays exact.
	src := stream.NewBuffered(s, stream.DefaultBatchSize)

	// Pre-size the vertex table from the same edge count that sizes the
	// assignment, so the pass skips the doubling rehashes (a budgeted
	// cache clamps the reservation to its budget).
	a.cache.Reserve(vcache.VerticesHintForEdges(m))

	asn := metrics.NewAssignment(a.cfg.k, int(m))

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

	// Refill tops the window up to w, one stream edge at a time: each
	// assignment frees one slot, so a refill is almost always one edge.
	refill := func() {
		for a.win.len() < w {
			e, ok := src.Next()
			if !ok {
				return
			}
			a.win.add(e)
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
			c2 := a.c2(now, deadline, latPerEdge, src)

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
	a.stats.ScoreComputations = a.scorer.scratch.scoreOps
	a.stats.FinalLambda = a.scorer.lambda
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
// the edges still to assign: the stream's remainder, which excludes the
// edges already drawn, plus the window fill.
func (a *Adwise) c2(now, deadline time.Time, latPerEdge time.Duration, s stream.Stream) bool {
	if a.cfg.latencyPref <= 0 {
		return false
	}
	left := deadline.Sub(now)
	if left <= 0 {
		return false
	}
	remaining := s.Remaining() + int64(a.win.len())
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
