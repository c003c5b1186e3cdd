package bench

import (
	"strings"
	"testing"
)

// scoringTable builds a Scoring table from (mode, window, workers,
// speedup) rows.
func scoringTable(rows ...[4]string) *Table {
	tab := &Table{ID: "Scoring", Columns: []string{"mode", "window", "workers", "speedup"}}
	for _, r := range rows {
		tab.Rows = append(tab.Rows, r[:])
	}
	return tab
}

// TestCompareScoring pins which cells the scoring guard compares, and
// that it fails when a multi-core machine compared none. Each skip case
// pairs a cell that would fail if compared with one comparable cell that
// holds, so the run passes only if the first cell is skipped.
func TestCompareScoring(t *testing.T) {
	held := [4]string{"single", "4096", "2", "1.20x"}
	for _, tc := range []struct {
		name      string
		base, cur *Table
		cores     int
		wantErr   string // "" means the guard passes
	}{
		{
			name:  "held cell passes",
			base:  scoringTable(held),
			cur:   scoringTable(held),
			cores: 2,
		},
		{
			name:    "regressed cell fails",
			base:    scoringTable(held),
			cur:     scoringTable([4]string{"single", "4096", "2", "0.90x"}),
			cores:   2,
			wantErr: "single w=4096 workers=2: speedup 1.20x -> 0.90x",
		},
		{
			name:  "oversubscribed cell is skipped",
			base:  scoringTable(held, [4]string{"single", "4096", "8", "1.50x"}),
			cur:   scoringTable(held, [4]string{"single", "4096", "8", "0.50x"}),
			cores: 2,
		},
		{
			name:  "baseline speedup below 1.05x is skipped",
			base:  scoringTable(held, [4]string{"single", "1024", "2", "1.04x"}),
			cur:   scoringTable(held, [4]string{"single", "1024", "2", "0.50x"}),
			cores: 2,
		},
		{
			name:  "cell missing from the current table is skipped",
			base:  scoringTable(held, [4]string{"refill/batched", "4096", "2", "1.06x"}),
			cur:   scoringTable(held),
			cores: 2,
		},
		{
			name:    "no compared cell fails on 2 cores",
			base:    scoringTable([4]string{"refill/batched", "4096", "2", "1.06x"}),
			cur:     scoringTable(held),
			cores:   2,
			wantErr: "no scoring cell of baseline was comparable on 2 cores",
		},
		{
			name:  "no compared cell passes on 1 core",
			base:  scoringTable(held, [4]string{"single", "4096", "1", "1.00x"}),
			cur:   scoringTable(held, [4]string{"single", "4096", "1", "1.00x"}),
			cores: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := compareScoring(tc.base, tc.cur, 0.2, tc.cores, "baseline")
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("guard failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("guard passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("guard error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
