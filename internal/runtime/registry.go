package runtime

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/metric"
	"github.com/adwise-go/adwise/internal/partition"
)

// Spec carries the construction knobs shared by all strategies. Strategies
// ignore the fields that do not apply to them (e.g. the hashing family
// ignores Latency and Window).
type Spec struct {
	// K is the global partition count.
	K int
	// Allowed restricts assignments to a partition subset — the spotlight
	// spread (§III-D). Empty means all of 0..K-1.
	Allowed []int
	// Seed drives the hash functions and any seeded choice.
	Seed uint64

	// Latency is ADWISE's latency preference L (0 = single-edge
	// behaviour).
	Latency time.Duration
	// Window, when > 0, pins ADWISE to a fixed window of this size,
	// overriding latency adaptation.
	Window int
	// TotalEdgesHint is ignored: every stream reports its exact length
	// through Remaining.
	//
	// Deprecated: the repository benchmark (perfbench/prog) still sets it;
	// it goes once a benchmark change drops that (ROADMAP item 3).
	TotalEdgesHint int64
	// Lambda overrides the balancing weight of strategies that take one
	// (HDRF); 0 selects the strategy default.
	Lambda float64
	// ScoreWorkers is ignored: every ADWISE instance scores its window on
	// its own goroutine.
	//
	// Deprecated: the repository benchmark (perfbench/prog) still sets it;
	// it goes once a benchmark change drops its -score-workers flag
	// (ROADMAP item 3).
	ScoreWorkers int
	// VertexBudgetBytes caps the byte footprint of the instance's vertex
	// state; 0 leaves it unbounded. Under SpotlightConfig.Instances a
	// run-level budget is divided across the z instances
	// (splitVertexBudget), since all z caches coexist for the run.
	VertexBudgetBytes int64
	// Options are extra ADWISE options applied after the Spec-derived
	// ones (clustering toggles, clock substitution, ...); the bench
	// strategies set each preset's clustering toggle through it.
	Options []core.Option
	// Metrics, when non-nil, attaches a live telemetry registry:
	// window-class instances publish their run totals onto it
	// (core.WithMetrics). Spotlight instances share the one registry —
	// counters are striped and lock-free, so z concurrent publishers do
	// not contend — and callers hand the same registry to
	// OpenFileStreams to meter the segment streams.
	Metrics *metric.Registry
}

// partitionConfig projects the Spec onto the single-edge framework config.
func (s Spec) partitionConfig() partition.Config {
	return partition.Config{K: s.K, Allowed: s.Allowed, Seed: s.Seed, VertexBudgetBytes: s.VertexBudgetBytes}
}

// Builder constructs a strategy instance from a Spec.
type Builder func(Spec) (Strategy, error)

// Class is the latency/quality family of a strategy, following the
// paper's Figure 1 taxonomy.
type Class string

// The strategy classes.
const (
	// ClassSingleEdge is the one-decision-per-arriving-edge family
	// (hashing and stateful streamers alike).
	ClassSingleEdge Class = "single-edge"
	// ClassWindow is the window-buffering family (ADWISE).
	ClassWindow Class = "window"
	// ClassAllEdge needs the whole chunk in memory (NE).
	ClassAllEdge Class = "all-edge"
)

// Meta describes a registered strategy for registry-driven experiment
// selection: the bench harness derives its figure strategy sets from
// these fields instead of hard-coded name lists, so a newly registered
// strategy appears in the tables automatically.
type Meta struct {
	// Name is the registry name.
	Name string
	// Class is the latency/quality family.
	Class Class
	// Sweep marks the degree-aware baselines the paper sweeps ADWISE
	// against in the Figure 7/8 comparisons (DBH, HDRF, and any future
	// peer registered with Sweep set).
	Sweep bool
}

var (
	regMu        sync.RWMutex
	builders     = make(map[string]Builder)
	metas        = make(map[string]Meta)
	partitioners = make(map[string]func(partition.Config) (partition.Partitioner, error))
	baselineList []string // single-edge names in canonical (Figure 1) order
)

// Register adds a strategy builder under meta.Name. It panics on a
// duplicate name: registration happens at init time and a collision is a
// programming error.
func Register(meta Meta, b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	if meta.Name == "" {
		panic("runtime: registering a strategy without a name")
	}
	if _, dup := builders[meta.Name]; dup {
		panic(fmt.Sprintf("runtime: strategy %q registered twice", meta.Name))
	}
	builders[meta.Name] = b
	metas[meta.Name] = meta
}

// RegisterPartitioner adds a single-edge baseline under meta.Name: the
// raw constructor is retained for NewPartitioner callers and also wrapped
// as a Strategy builder. The class is forced to ClassSingleEdge.
func RegisterPartitioner(meta Meta, build func(partition.Config) (partition.Partitioner, error)) {
	meta.Class = ClassSingleEdge
	Register(meta, func(s Spec) (Strategy, error) {
		p, err := build(s.partitionConfig())
		if err != nil {
			return nil, err
		}
		return FromPartitioner(p), nil
	})
	recordBaseline(meta.Name, build)
}

// recordBaseline notes a single-edge constructor for NewPartitioner and the
// canonical baseline ordering, without touching the Strategy builders.
func recordBaseline(name string, build func(partition.Config) (partition.Partitioner, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	partitioners[name] = build
	baselineList = append(baselineList, name)
}

// New constructs the named strategy from the registry.
func New(name string, spec Spec) (Strategy, error) {
	regMu.RLock()
	b, ok := builders[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("runtime: unknown strategy %q (have %v)", name, Names())
	}
	return b(spec)
}

// NewPartitioner constructs the named single-edge baseline as a raw
// partition.Partitioner (per-edge Assign interface). Window and all-edge
// strategies are not constructible this way.
func NewPartitioner(name string, cfg partition.Config) (partition.Partitioner, error) {
	regMu.RLock()
	build, ok := partitioners[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("runtime: unknown single-edge baseline %q (have %v)", name, Baselines())
	}
	return build(cfg)
}

// Names lists every registered strategy, sorted.
func Names() []string {
	return NamesWhere(func(Meta) bool { return true })
}

// NamesWhere lists the registered strategies whose Meta satisfies pred,
// sorted. It is the filter behind the bench harness's registry-driven
// experiment matrices.
func NamesWhere(pred func(Meta) bool) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(metas))
	for name, m := range metas {
		if pred(m) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// MetaOf returns the registration metadata of a strategy.
func MetaOf(name string) (Meta, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := metas[name]
	return m, ok
}

// Baselines lists the single-edge strategies in canonical (Figure 1)
// presentation order.
func Baselines() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(baselineList))
	copy(out, baselineList)
	return out
}

// lift adapts a constructor returning a concrete partitioner type to the
// interface-typed signature the registry stores, without a typed-nil leak
// on error.
func lift[P partition.Partitioner](build func(partition.Config) (P, error)) func(partition.Config) (partition.Partitioner, error) {
	return func(cfg partition.Config) (partition.Partitioner, error) {
		p, err := build(cfg)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

func init() {
	RegisterPartitioner(Meta{Name: "hash"}, lift(partition.NewHash))
	RegisterPartitioner(Meta{Name: "1d"}, lift(partition.NewOneDim))
	RegisterPartitioner(Meta{Name: "2d"}, lift(partition.NewTwoDim))
	RegisterPartitioner(Meta{Name: "grid"}, lift(partition.NewGrid))
	RegisterPartitioner(Meta{Name: "greedy"}, lift(partition.NewGreedy))
	RegisterPartitioner(Meta{Name: "dbh", Sweep: true}, lift(partition.NewDBH))

	// HDRF takes a balancing weight: its Strategy builder honours
	// Spec.Lambda (0 = the authors' recommended default), while the raw
	// partitioner constructor pins the default.
	Register(Meta{Name: "hdrf", Class: ClassSingleEdge, Sweep: true}, func(s Spec) (Strategy, error) {
		lambda := s.Lambda
		if lambda == 0 {
			lambda = partition.HDRFDefaultLambda
		}
		p, err := partition.NewHDRF(s.partitionConfig(), lambda)
		if err != nil {
			return nil, err
		}
		return FromPartitioner(p), nil
	})
	recordBaseline("hdrf", func(cfg partition.Config) (partition.Partitioner, error) {
		return partition.NewHDRF(cfg, partition.HDRFDefaultLambda)
	})

	Register(Meta{Name: "adwise", Class: ClassWindow}, func(s Spec) (Strategy, error) {
		opts := []core.Option{core.WithLatencyPreference(s.Latency)}
		if len(s.Allowed) > 0 {
			opts = append(opts, core.WithAllowedPartitions(s.Allowed))
		}
		if s.Window > 0 {
			opts = append(opts, core.WithInitialWindow(s.Window), core.WithFixedWindow())
		}
		if s.VertexBudgetBytes > 0 {
			opts = append(opts, core.WithVertexBudget(s.VertexBudgetBytes))
		}
		if s.Metrics != nil {
			opts = append(opts, core.WithMetrics(s.Metrics))
		}
		opts = append(opts, s.Options...)
		ad, err := core.New(s.K, opts...)
		if err != nil {
			return nil, err
		}
		return adwiseStrategy{ad}, nil
	})

	Register(Meta{Name: "ne", Class: ClassAllEdge}, func(s Spec) (Strategy, error) {
		if s.K < 1 {
			return nil, fmt.Errorf("runtime: ne needs K >= 1, got %d", s.K)
		}
		for _, p := range s.Allowed {
			if p < 0 || p >= s.K {
				return nil, fmt.Errorf("runtime: ne allowed partition %d outside [0,%d)", p, s.K)
			}
		}
		allowed := s.Allowed
		if len(allowed) == s.K {
			// Full spread: run NE over the global partition set directly.
			allowed = nil
		}
		return &neStrategy{k: s.K, allowed: allowed, seed: s.Seed, clk: clock.Real{}}, nil
	})
}
