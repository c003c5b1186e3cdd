package bench

import (
	"encoding/json"
	"fmt"
	"os"
	gort "runtime"
	"sort"
	"strconv"
	"strings"
)

// Trajectory is the committed benchmark history of one experiment
// (BENCH_<experiment>.json): an append-only sequence of labeled runs, so
// a PR that touches a hot path checks in its before/after measurements
// and CI can guard against silent regressions.
type Trajectory struct {
	Experiment string      `json:"experiment"`
	Runs       []RunRecord `json:"runs"`
}

// RunRecord is one recorded benchmark run.
type RunRecord struct {
	// Label identifies the run's role: free-form for humans ("pr5-static-
	// pool", "pr6-shared-pool"), with "ci-baseline" reserved — the last
	// run so labeled is what CheckScoringRegression compares against.
	Label string `json:"label"`
	// Date is the run date (YYYY-MM-DD, informational).
	Date string `json:"date,omitempty"`
	// Cores is GOMAXPROCS at measurement time; speedup-based guards only
	// compare cells whose worker count fits the current machine.
	Cores int `json:"cores"`
	// Scale is the Config.Scale the run used.
	Scale  float64  `json:"scale"`
	Tables []*Table `json:"tables"`
}

// LoadTrajectory reads a trajectory file.
func LoadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading trajectory %s: %w", path, err)
	}
	var tr Trajectory
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("bench: parsing trajectory %s: %w", path, err)
	}
	return &tr, nil
}

// scoringKey identifies a scoring cell across runs.
type scoringKey struct {
	mode, window, workers string
}

// scoringSpeedups extracts mode/window/workers → speedup from a Scoring
// table. It tolerates the pre-skew column layout (no mode column) by
// keying those rows as mode "single".
func scoringSpeedups(t *Table) map[scoringKey]float64 {
	col := make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		col[c] = i
	}
	wi, ok1 := col["window"]
	ki, ok2 := col["workers"]
	si, ok3 := col["speedup"]
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	mi, hasMode := col["mode"]
	out := make(map[scoringKey]float64, len(t.Rows))
	for _, row := range t.Rows {
		if len(row) <= wi || len(row) <= ki || len(row) <= si || (hasMode && len(row) <= mi) {
			continue
		}
		sp, err := strconv.ParseFloat(strings.TrimSuffix(row[si], "x"), 64)
		if err != nil {
			continue
		}
		key := scoringKey{mode: "single", window: row[wi], workers: row[ki]}
		if hasMode {
			key.mode = row[mi]
		}
		out[key] = sp
	}
	return out
}

// CheckScoringRegression guards the scoring microbenchmark against the
// committed baseline: it compares the current Scoring table's per-cell
// speedups (not absolute latencies — those track the machine, speedups
// track the code) against the most recent "ci-baseline" run in the
// trajectory at baselinePath, on this machine's GOMAXPROCS cores (see
// compareScoring).
func CheckScoringRegression(current *Table, baselinePath string, tol float64) error {
	tr, err := LoadTrajectory(baselinePath)
	if err != nil {
		return err
	}
	var base *RunRecord
	for i := range tr.Runs {
		if tr.Runs[i].Label == "ci-baseline" {
			base = &tr.Runs[i]
		}
	}
	if base == nil {
		return fmt.Errorf("bench: no ci-baseline run in %s", baselinePath)
	}
	var baseTab *Table
	for _, t := range base.Tables {
		if t.ID == current.ID {
			baseTab = t
			break
		}
	}
	if baseTab == nil {
		return fmt.Errorf("bench: ci-baseline run in %s has no %q table", baselinePath, current.ID)
	}
	return compareScoring(baseTab, current, tol, gort.GOMAXPROCS(0), baselinePath)
}

// compareScoring fails if any comparable cell of current lost more than
// tol of its speedup in base (tol 0.2 = the >20% regression gate), or if
// a machine with at least 2 cores compared no cell at all: a renamed mode
// or a reshaped table must not switch the guard off unnoticed. from
// names the baseline in errors.
//
// A cell is comparable when both tables measured it, its worker count
// fits the machine (workers ≤ cores — oversubscribed cells measure
// scheduling noise), and the baseline speedup is ≥ 1.05 (cells that never
// sped up have no parallel win to protect and would only flap on noise).
// On a single core only workers=1 cells fit, and their speedup is 1.00x
// by definition, so the guard passes there vacuously.
func compareScoring(base, current *Table, tol float64, cores int, from string) error {
	baseCells := scoringSpeedups(base)
	curCells := scoringSpeedups(current)
	if len(baseCells) == 0 || len(curCells) == 0 {
		return fmt.Errorf("bench: no comparable speedup cells between current table and %s", from)
	}
	compared := 0
	var failures []string
	for key, baseSp := range baseCells {
		if baseSp < 1.05 {
			continue
		}
		if w, err := strconv.Atoi(key.workers); err != nil || w > cores {
			continue
		}
		curSp, ok := curCells[key]
		if !ok {
			continue
		}
		compared++
		if curSp < baseSp*(1-tol) {
			failures = append(failures, fmt.Sprintf("%s w=%s workers=%s: speedup %.2fx -> %.2fx (> %.0f%% regression)",
				key.mode, key.window, key.workers, baseSp, curSp, tol*100))
		}
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		return fmt.Errorf("bench: scoring regression vs %s:\n  %s", from, strings.Join(failures, "\n  "))
	}
	if compared == 0 && cores >= 2 {
		return fmt.Errorf("bench: no scoring cell of %s was comparable on %d cores (each was missing from the current table, oversubscribed, or below a 1.05x baseline speedup)", from, cores)
	}
	return nil
}
