// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table II, Figure 1, Figures 7a–7i,
// Figure 8) plus the ablations called out in DESIGN.md, printing
// paper-style tables.
//
// Experiment scale is controlled by Config.Scale so the full suite runs on
// a laptop; EXPERIMENTS.md records the paper-vs-measured comparison.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/engine"
)

// Config carries the shared experiment parameters. The defaults mirror the
// paper's setup — k=32 partitions, z=8 parallel loaders with spotlight
// spread 4 — at a reduced graph scale.
type Config struct {
	// Scale is the synthetic-graph scale factor (1.0 = default evaluation
	// size, see gen package).
	Scale float64
	// Seed drives graph generation and every seeded choice downstream.
	Seed uint64
	// K, Z, Spread configure partitioning: K partitions, Z parallel
	// loader instances, Spread partitions per instance.
	K, Z, Spread int
	// LatencyMultipliers are the ADWISE latency preferences, expressed as
	// multiples of the measured HDRF partitioning latency (the paper
	// recommends ~3x; the sweep shows the sweet spot).
	LatencyMultipliers []float64
	// PageRankIters is the total PageRank iteration count (reported in
	// blocks of 100, as in Figures 7a–7c).
	PageRankIters int
	// ColoringIters is the coloring iteration bound (blocks of 50,
	// Figure 7e).
	ColoringIters int
	// CycleLengths are the circle lengths of the subgraph-isomorphism
	// workload (Figure 7d; paper: 19/15/21, scaled down here).
	CycleLengths []int
	// CycleSeedCount bounds the walker seeds per circle search.
	CycleSeedCount int
	// CycleMessageCap bounds per-partition path-message production.
	CycleMessageCap int
	// CliqueSizes are the clique sizes of Figure 7f (paper: 3/4/5).
	CliqueSizes []int
	// CliqueSeedCount is the number of random walker starts (paper: 10).
	CliqueSeedCount int
	// Cost is the engine's simulated cluster cost model.
	Cost engine.CostModel
	// Workers bounds engine parallelism (0 = GOMAXPROCS).
	Workers int
	// VertexBudgetBytes pins the memory experiment to a single explicit
	// vertex-state budget instead of its default {∞, ½, ¼, ⅛ of unbounded
	// peak} sweep (0 = sweep). Other experiments run unbounded regardless —
	// eviction changes assignments, and their tables reproduce the paper's
	// unbounded setting.
	VertexBudgetBytes int64
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
	// Clock substitutes the wall-time source behind every measured
	// latency (nil = real time); tests inject a clock.Fake to make
	// harness timing deterministic.
	Clock clock.Clock
}

// clock returns the configured time source, defaulting to real time.
func (c Config) clock() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.Real{}
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Scale:              0.1,
		Seed:               42,
		K:                  32,
		Z:                  8,
		Spread:             4,
		LatencyMultipliers: []float64{3, 10, 30},
		PageRankIters:      300,
		ColoringIters:      300,
		CycleLengths:       []int{8, 6, 10},
		CycleSeedCount:     8,
		CycleMessageCap:    50_000,
		CliqueSizes:        []int{3, 4, 5},
		CliqueSeedCount:    10,
		Cost:               DefaultBenchCostModel(),
		Workers:            0,
	}
}

// DefaultBenchCostModel is the cluster calibration used by the harness:
// replica-sync messages ~50x an edge traversal, with a small BSP barrier
// overhead, so that (as in the paper's testbed) the processing latency of
// a 100-iteration PageRank block lands within a small multiple of the
// single-edge partitioning latency and is dominated by replication-driven
// communication.
func DefaultBenchCostModel() engine.CostModel {
	return engine.CostModel{
		PerEdge:      20 * time.Nanosecond,
		PerVertex:    10 * time.Nanosecond,
		PerMessage:   2 * time.Microsecond,
		StepOverhead: 100 * time.Microsecond,
		Machines:     8,
	}
}

func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// Table is a printable experiment result. The exported fields marshal to
// JSON as-is (cmd/adwise-bench -json), so the per-PR perf trajectory can
// be captured machine-readably; cell values stay strings, formatted
// exactly as the text tables print them.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// WriteJSON writes the table as one JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w
	}
	return total + 2*(len(widths)-1)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}
