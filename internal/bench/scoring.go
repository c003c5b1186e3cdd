package bench

import (
	"fmt"
	gort "runtime"
	"time"

	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/stream"
)

// Scoring measures the window-scoring pool in two regimes.
//
// The "single" section is the historical sweep: one ADWISE instance (no
// spotlight, so the scaling of the scoring loop is not confounded with
// instance parallelism) partitions the same stream at fixed window sizes,
// sweeping the logical shard count. Per cell the table reports wall-clock
// latency, speedup over the single-shard run of the same window, the
// sharded-pass count, the stolen-shard count, and whether the assignment
// sequence matched the serial run edge-for-edge — the pool's determinism
// contract, re-verified on every sweep.
//
// The "skew" section is the workload the process-wide work-stealing pool
// exists for: a z=4 spotlight run over deliberately skewed segments (one
// dense RMAT segment of ~10M·scale edges, three sparse ones at 1/16 of
// that), comparing
//
//   - skew/serial — every instance scores serially (the identity
//     reference);
//   - skew/shared — all instances submit shards to the shared
//     work-stealing pool, at 2 and GOMAXPROCS logical shards per
//     instance, so the dense instance borrows whatever the sparse
//     instances leave idle (the "stolen" column counts exactly those
//     borrowed shard executions).
//
// Every skew cell is verified edge-for-edge identical to skew/serial:
// worker count is an execution detail, never semantics.
//
// Shards are swept over {1, 2, 4, 8} by default in the single section
// (values beyond the machine's cores are still measured —
// oversubscription is a data point). Config.ScoreWorkers pins the sweep
// to {1, n} instead, which combined with -cpuprofile isolates where the
// scoring loop saturates.
func Scoring(cfg Config) (*Table, error) {
	tab := &Table{
		ID: "Scoring",
		Title: fmt.Sprintf("window scoring on the shared work-stealing pool, adwise, k=%d, %d cores",
			cfg.K, gort.GOMAXPROCS(0)),
		Columns: []string{"mode", "window", "workers", "latency", "speedup", "sharded passes", "stolen", "identical"},
		Notes: []string{
			"single/* speedup is against the workers=1 run of the same window; skew/* speedup is against skew/serial;",
			"identical = the run's assignment sequence matched its serial reference edge-for-edge (the",
			"deterministic-reduction contract; with stealing, executor identity is invisible to results);",
			"stolen counts pool-pass shards executed by pool workers rather than the submitting instance —",
			"on skew/shared this is the dense instance borrowing the cores the sparse instances leave idle;",
			"small passes run inline, so tiny windows show no sharded passes and no speedup",
		},
	}
	if err := scoringSingle(cfg, tab); err != nil {
		return tab, err
	}
	if err := scoringSkew(cfg, tab); err != nil {
		return tab, err
	}
	return tab, nil
}

// scoringSingle runs the one-instance shard-count sweep.
func scoringSingle(cfg Config, tab *Table) error {
	g, err := gen.PresetWeb.Generate(cfg.Scale, cfg.Seed)
	if err != nil {
		return fmt.Errorf("bench: generating web graph: %w", err)
	}
	edges := stream.Shuffled(g.Edges, cfg.Seed+1)

	windows := []int{1 << 10, 1 << 12}
	workerSweep := []int{1, 2, 4, 8}
	if cfg.ScoreWorkers > 0 {
		// Pinned (any explicit value, including 1): measure only the serial
		// baseline and the pinned count, so -cpuprofile isolates one
		// configuration.
		workerSweep = []int{1, cfg.ScoreWorkers}
	}

	clk := cfg.clock()
	run := func(window, workers int) (*metrics.Assignment, core.RunStats, time.Duration, error) {
		ad, err := core.New(cfg.K,
			core.WithInitialWindow(window),
			core.WithFixedWindow(),
			core.WithMaxCandidates(window),
			core.WithScoreWorkers(workers),
			core.WithTotalEdgesHint(int64(len(edges))),
		)
		if err != nil {
			return nil, core.RunStats{}, 0, err
		}
		start := clk.Now()
		a, err := ad.Run(stream.FromEdges(edges))
		if err != nil {
			return nil, core.RunStats{}, 0, err
		}
		return a, ad.Stats(), clk.Now().Sub(start), nil
	}

	for _, window := range windows {
		serial, _, serialLat, err := run(window, 1)
		if err != nil {
			return fmt.Errorf("bench: scoring w=%d serial: %w", window, err)
		}
		cfg.progressf("  scoring single w=%d workers=1: %v", window, serialLat)
		tab.AddRow("single", window, 1, serialLat, "1.00x", 0, 0, "yes")
		for _, workers := range workerSweep {
			if workers == 1 {
				continue
			}
			a, st, lat, err := run(window, workers)
			if err != nil {
				return fmt.Errorf("bench: scoring w=%d workers=%d: %w", window, workers, err)
			}
			ident := sameAssignments(serial, a)
			tab.AddRow("single", window, workers, lat,
				fmt.Sprintf("%.2fx", float64(serialLat)/float64(lat)),
				st.ParallelScorePasses, st.StolenScoreShards, identLabel(ident))
			cfg.progressf("  scoring single w=%d workers=%d: %v (%.2fx), %d sharded passes, %d stolen",
				window, workers, lat, float64(serialLat)/float64(lat), st.ParallelScorePasses, st.StolenScoreShards)
			if !ident {
				return fmt.Errorf("bench: scoring w=%d workers=%d diverged from the serial assignment sequence", window, workers)
			}
		}
	}
	return nil
}

// scoringSkewWindow is the fixed ADWISE window of the skew comparison.
const scoringSkewWindow = 256

// scoringSkew runs the skewed-spotlight serial-vs-shared comparison.
func scoringSkew(cfg Config, tab *Table) error {
	const z = 4
	dense := int(10_000_000 * cfg.Scale)
	if dense < 8_000 {
		dense = 8_000
	}
	scale := 1
	for 1<<scale < dense/8 {
		scale++
	}
	dg, err := gen.RMAT(scale, dense, 0.57, 0.19, 0.19, cfg.Seed+3)
	if err != nil {
		return fmt.Errorf("bench: generating dense skew segment: %w", err)
	}
	sparse := max(dense/16, 8)
	sparseEdges := make([]graph.Edge, sparse)
	for i := range sparseEdges {
		sparseEdges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	streams := func() []stream.Stream {
		ss := make([]stream.Stream, z)
		ss[0] = stream.FromEdges(dg.Edges)
		for i := 1; i < z; i++ {
			ss[i] = stream.FromEdges(sparseEdges)
		}
		return ss
	}
	scfg := runtime.SpotlightConfig{K: cfg.K, Z: z, Spread: max(cfg.K/z, 1)}
	clk := cfg.clock()

	// run executes one skew cell. workers is the per-instance logical
	// shard count: more than one submits to the shared pool, one scores
	// inline. Instances splits the run-level budget of workers·z back
	// into workers per instance (scfg is not Sequential, which would hand
	// every instance the whole budget); the check below fails the cell
	// if the split ever drifts from that.
	run := func(workers int) (*metrics.Assignment, runtime.Stats, time.Duration, error) {
		start := clk.Now()
		spec := runtime.Spec{Seed: cfg.Seed, Window: scoringSkewWindow, ScoreWorkers: workers * z}
		a, stats, err := runtime.RunSpotlightStreamsStats(streams(), scfg, scfg.Instances("adwise", spec))
		if err != nil {
			return nil, runtime.Stats{}, 0, err
		}
		lat := clk.Now().Sub(start)
		for i, st := range stats {
			if st.ScoreWorkers != workers {
				return nil, runtime.Stats{}, 0, fmt.Errorf("bench: skew instance %d scored with %d workers, want %d", i, st.ScoreWorkers, workers)
			}
		}
		return a, runtime.AggregateStats(stats), lat, nil
	}

	serial, _, serialLat, err := run(1)
	if err != nil {
		return fmt.Errorf("bench: skew serial: %w", err)
	}
	cfg.progressf("  scoring skew/serial z=%d dense=%d: %v", z, dense, serialLat)
	tab.AddRow("skew/serial", scoringSkewWindow, 1, serialLat, "1.00x", 0, 0, "yes")

	sweep := []int{2}
	if gmp := gort.GOMAXPROCS(0); gmp != 2 {
		sweep = append(sweep, gmp)
	}
	for _, workers := range sweep {
		a, st, lat, err := run(workers)
		if err != nil {
			return fmt.Errorf("bench: skew/shared workers=%d: %w", workers, err)
		}
		ident := sameAssignments(serial, a)
		tab.AddRow("skew/shared", scoringSkewWindow, workers, lat,
			fmt.Sprintf("%.2fx", float64(serialLat)/float64(lat)),
			st.ParallelScorePasses, st.StolenScoreShards, identLabel(ident))
		cfg.progressf("  scoring skew/shared workers=%d: %v (%.2fx), %d sharded passes, %d stolen",
			workers, lat, float64(serialLat)/float64(lat), st.ParallelScorePasses, st.StolenScoreShards)
		if !ident {
			return fmt.Errorf("bench: skew/shared workers=%d diverged from the serial assignment sequence", workers)
		}
	}
	return nil
}

func identLabel(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// sameAssignments reports whether two runs assigned the same edges to the
// same partitions in the same order.
func sameAssignments(a, b *metrics.Assignment) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.Parts[i] != b.Parts[i] {
			return false
		}
	}
	return true
}
