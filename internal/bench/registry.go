package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Experiment is one runnable table/figure reproduction.
type Experiment struct {
	// ID is the CLI name (e.g. "fig7a").
	ID string
	// Paper names the table or figure reproduced.
	Paper string
	// Run executes the experiment.
	Run func(Config) (*Table, error)
}

// Experiments lists every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Table II", TableII},
		{"fig1", "Figure 1", Figure1},
		{"fig7a", "Figure 7a", Figure7a},
		{"fig7b", "Figure 7b", Figure7b},
		{"fig7c", "Figure 7c", Figure7c},
		{"fig7d", "Figure 7d", Figure7d},
		{"fig7e", "Figure 7e", Figure7e},
		{"fig7f", "Figure 7f", Figure7f},
		{"fig7g", "Figure 7g", Figure7g},
		{"fig7h", "Figure 7h", Figure7h},
		{"fig7i", "Figure 7i", Figure7i},
		{"fig8", "Figure 8", Figure8},
		{"ablation-lazy", "DESIGN §5.1", AblationLazy},
		{"ablation-lambda", "DESIGN §5.2", AblationLambda},
		{"ablation-clustering", "DESIGN §5.3", AblationClustering},
		{"ablation-window", "DESIGN §5.4", AblationWindow},
		{"ablation-order", "DESIGN §3", AblationOrder},
		{"ingest", "§III-D loading", Ingest},
		{"serve", "§II serving", Serve},
		{"memory", "HEP memory envelope", Memory},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// RunAll executes every experiment, printing each table to w as it
// completes. It stops at the first failure.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range Experiments() {
		t, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		if err := t.Fprint(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAllJSON executes every experiment and writes the results to w as one
// JSON array of tables. It stops at the first failure, writing nothing.
func RunAllJSON(cfg Config, w io.Writer) error {
	tables := make([]*Table, 0, len(Experiments()))
	for _, e := range Experiments() {
		t, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		tables = append(tables, t)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tables)
}
