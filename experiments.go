package adwise

import (
	"io"

	"github.com/adwise-go/adwise/internal/bench"
)

// Experiment harness re-exports: every table and figure of the paper's
// evaluation can be regenerated programmatically or via cmd/adwise-bench.
type (
	// ExperimentConfig carries the shared experiment parameters (scale,
	// seeds, k/z/spread, workload sizes, cost model).
	ExperimentConfig = bench.Config
	// ExperimentTable is a printable experiment result.
	ExperimentTable = bench.Table
	// Experiment is one runnable table/figure reproduction.
	Experiment = bench.Experiment
)

// DefaultExperimentConfig returns the laptop-scale defaults (k=32, z=8,
// spread=4, scale 0.1).
func DefaultExperimentConfig() ExperimentConfig { return bench.DefaultConfig() }

// Experiments lists every reproducible table/figure in presentation
// order: table2, fig1, fig7a..fig7i, fig8, and the design ablations.
func Experiments() []Experiment { return bench.Experiments() }

// LookupExperiment finds an experiment by ID (e.g. "fig7a").
func LookupExperiment(id string) (Experiment, error) { return bench.Lookup(id) }

// RunAllExperiments executes the full suite, printing each table to w.
func RunAllExperiments(cfg ExperimentConfig, w io.Writer) error {
	return bench.RunAll(cfg, w)
}

// RunAllExperimentsJSON executes the full suite and writes one JSON array
// of tables to w — the machine-readable form behind adwise-bench -json.
func RunAllExperimentsJSON(cfg ExperimentConfig, w io.Writer) error {
	return bench.RunAllJSON(cfg, w)
}
