package bench

import (
	"fmt"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/runtime"
)

// Figure8 regenerates Figure 8: the efficacy of the spotlight optimization
// on Brain. With z=8 parallel partitioners filling k=32 partitions, the
// spread (partitions per partitioner) is swept over {4, 8, 16, 32}; the
// paper reports replication-degree reductions of up to 76% at the minimal
// spread, for all strategies.
func Figure8(cfg Config) (*Table, error) {
	g, err := gen.BrainLike(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: fig8: %w", err)
	}
	// Spotlight exploits locality already present in the stream; the
	// paper streams the file in its natural order.
	edges := g.Edges
	cfg.progressf("fig8: brain V=%d E=%d", g.NumV, g.E())

	spreads := []int{cfg.K / cfg.Z, 8, 16, cfg.K}
	t := &Table{
		ID:      "Figure 8",
		Title:   fmt.Sprintf("Spotlight: RF vs spread on Brain-like (k=%d, z=%d)", cfg.K, cfg.Z),
		Columns: []string{"strategy"},
	}
	for _, s := range spreads {
		t.Columns = append(t.Columns, fmt.Sprintf("spread=%d", s))
	}
	t.Columns = append(t.Columns, "reduction")

	// Registry-driven strategy set: the sweep baselines plus every
	// window-class strategy, as in the paper's Figure 8 comparison.
	strategies := append(SweepBaselines(), WindowStrategies()...)
	for _, name := range strategies {
		row := []any{name}
		var first, last float64
		for i, spread := range spreads {
			at := cfg
			at.Spread = spread
			// A moderate fixed window keeps the ADWISE sweep deterministic
			// and isolates the spread effect from the latency-adaptation
			// loop; the single-edge strategies ignore the window knob.
			r, err := at.runStrategy(name, edges, runtime.Spec{Window: 64})
			if err != nil {
				return nil, fmt.Errorf("bench: fig8 %s spread=%d: %w", name, spread, err)
			}
			rf := r.Summary.ReplicationDegree
			row = append(row, rf)
			if i == 0 {
				first = rf
			}
			if i == len(spreads)-1 {
				last = rf
			}
			cfg.progressf("fig8: %-7s spread=%-2d RF=%.3f", name, spread, rf)
		}
		row = append(row, fmt.Sprintf("-%.0f%%", 100*(1-first/last)))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"reduction = RF drop going from full spread (classic parallel loading) to the minimal spotlight spread k/z")
	return t, nil
}
