package bench

import (
	"fmt"
	"time"

	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/stream"
)

// StrategyResult is one partitioning run of an experiment.
type StrategyResult struct {
	// Name labels the strategy (a registry name, e.g. "dbh", "hdrf",
	// "adwise").
	Name string
	// LatencyPref is ADWISE's L (zero for the single-edge baselines).
	LatencyPref time.Duration
	// Latency is the measured wall-clock partitioning latency.
	Latency time.Duration
	// Summary is the partitioning quality.
	Summary metrics.Summary
	// Assignment is the produced partitioning.
	Assignment *metrics.Assignment
}

// evalGraph generates the preset graph and applies the experiment's stream
// order. Orkut and Brain stream in generator (file) order, which carries
// the temporal locality of a real crawl; Web is shuffled because the
// community generator's file order is unrealistically clean (every site
// fully contiguous) — see DESIGN.md §3.
func (c Config) evalGraph(preset gen.Preset) (*graph.Graph, []graph.Edge, error) {
	g, err := preset.Generate(c.Scale, c.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: generating %s: %w", preset, err)
	}
	edges := g.Edges
	if preset == gen.PresetWeb {
		edges = stream.Shuffled(g.Edges, c.Seed+1)
	}
	return g, edges, nil
}

func (c Config) spotlightConfig() runtime.SpotlightConfig {
	return runtime.SpotlightConfig{K: c.K, Z: c.Z, Spread: c.Spread}
}

// runStrategy partitions edges with the named registry strategy under the
// paper's parallel-loading setup: Z in-memory chunks, one registry
// instance each.
func (c Config) runStrategy(name string, edges []graph.Edge, spec runtime.Spec) (StrategyResult, error) {
	spec.K = c.K
	if spec.Seed == 0 {
		spec.Seed = c.Seed
	}
	if spec.ScoreWorkers == 0 {
		spec.ScoreWorkers = c.ScoreWorkers
	}
	scfg := c.spotlightConfig()
	clk := c.clock()
	start := clk.Now()
	streams, err := runtime.ChunkStreams(edges, scfg.Z)
	if err != nil {
		return StrategyResult{}, fmt.Errorf("bench: running %s: %w", name, err)
	}
	a, _, err := runtime.RunSpotlightStreamsStats(streams, scfg, scfg.Instances(name, spec))
	if err != nil {
		return StrategyResult{}, fmt.Errorf("bench: running %s: %w", name, err)
	}
	return StrategyResult{
		Name:        name,
		LatencyPref: spec.Latency,
		Latency:     clk.Now().Sub(start),
		Summary:     metrics.Summarize(a),
		Assignment:  a,
	}, nil
}

// runBaseline partitions edges with a named single-edge baseline under the
// paper's parallel-loading setup.
func (c Config) runBaseline(name string, edges []graph.Edge) (StrategyResult, error) {
	return c.runStrategy(name, edges, runtime.Spec{})
}

// WithPresetClustering disables the clustering score on Orkut, as the
// paper does ("Orkut has a low clustering coefficient, so that the
// clustering score in ADWISE is not effective and, hence, was switched off
// for this graph").
func WithPresetClustering(preset gen.Preset) core.Option {
	return core.WithClusteringScore(preset != gen.PresetOrkut)
}

// runWindow partitions edges with a window-class strategy at the given
// latency preference under the parallel-loading setup. Each of the Z
// instances adapts its own window against the shared deadline L.
func (c Config) runWindow(name string, preset gen.Preset, edges []graph.Edge, latencyPref time.Duration) (StrategyResult, error) {
	return c.runStrategy(name, edges, runtime.Spec{
		Latency: latencyPref,
		Options: []core.Option{WithPresetClustering(preset)},
	})
}

// SweepBaselines lists the single-edge baselines of the Figure 7/8
// comparison sweep, derived from the registry (strategies registered with
// Meta.Sweep), so a newly registered peer joins the tables automatically.
func SweepBaselines() []string {
	return runtime.NamesWhere(func(m runtime.Meta) bool { return m.Sweep })
}

// WindowStrategies lists the window-class strategies, derived from the
// registry.
func WindowStrategies() []string {
	return runtime.NamesWhere(func(m runtime.Meta) bool { return m.Class == runtime.ClassWindow })
}

// partitionSweep runs the Figure 7 strategy set on edges: every sweep
// baseline from the registry, then every window-class strategy at each
// configured latency multiple of the slowest measured baseline latency
// (the paper anchors the ADWISE sweep on HDRF, its slowest baseline).
func (c Config) partitionSweep(preset gen.Preset, edges []graph.Edge) ([]StrategyResult, error) {
	baselines := SweepBaselines()
	windows := WindowStrategies()
	if len(baselines) == 0 {
		// Fail loudly: with no baselines the latency anchor would be zero
		// and every window run would silently degenerate to L=0.
		return nil, fmt.Errorf("bench: no sweep baselines registered (no strategy has Meta.Sweep)")
	}
	results := make([]StrategyResult, 0, len(baselines)+len(windows)*len(c.LatencyMultipliers))
	var anchor time.Duration
	for _, name := range baselines {
		r, err := c.runBaseline(name, edges)
		if err != nil {
			return nil, err
		}
		c.progressf("  %s: RF=%.3f lat=%v", name, r.Summary.ReplicationDegree, r.Latency.Round(time.Millisecond))
		results = append(results, r)
		if r.Latency > anchor {
			anchor = r.Latency
		}
	}
	for _, name := range windows {
		for _, mult := range c.LatencyMultipliers {
			l := time.Duration(float64(anchor) * mult)
			r, err := c.runWindow(name, preset, edges, l)
			if err != nil {
				return nil, err
			}
			c.progressf("  %s(L=%v): RF=%.3f lat=%v", name, l.Round(time.Millisecond), r.Summary.ReplicationDegree, r.Latency.Round(time.Millisecond))
			results = append(results, r)
		}
	}
	return results, nil
}

// label renders the strategy name with its latency preference.
func (r StrategyResult) label() string {
	if r.LatencyPref == 0 {
		return r.Name
	}
	return fmt.Sprintf("%s L=%s", r.Name, formatDuration(r.LatencyPref))
}
