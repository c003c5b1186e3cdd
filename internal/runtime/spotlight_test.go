package runtime

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/partition"
	"github.com/adwise-go/adwise/internal/stream"
)

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(s stream.Stream) (*metrics.Assignment, error)

// Run implements Runner.
func (f RunnerFunc) Run(s stream.Stream) (*metrics.Assignment, error) { return f(s) }

// runChunks runs the executor over the in-memory source: cfg.Z contiguous
// chunks of edges, one per instance.
func runChunks(edges []graph.Edge, cfg SpotlightConfig, build func(i int, allowed []int) (Runner, error)) (*metrics.Assignment, error) {
	streams, err := ChunkStreams(edges, cfg.Z)
	if err != nil {
		return nil, err
	}
	a, _, err := RunSpotlightStreamsStats(streams, cfg, build)
	return a, err
}

// runFile runs cfg.Z registry instances of the named strategy over the
// file source, metered onto spec.Metrics.
func runFile(name, path string, cfg SpotlightConfig, spec Spec) (*metrics.Assignment, error) {
	streams, closeAll, err := OpenFileStreams(path, cfg.Z, spec.Metrics)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	a, _, err := RunSpotlightStreamsStats(streams, cfg, cfg.Instances(name, spec))
	return a, err
}

func edgesN(n int) []graph.Edge {
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	return out
}

func clusteredGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Community(60, 10, 0.9, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpotlightConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  SpotlightConfig
	}{
		{"k=0", SpotlightConfig{K: 0, Z: 1, Spread: 1}},
		{"z=0", SpotlightConfig{K: 4, Z: 0, Spread: 4}},
		{"z not dividing k", SpotlightConfig{K: 10, Z: 3, Spread: 4}},
		{"spread below k/z", SpotlightConfig{K: 32, Z: 8, Spread: 2}},
		{"spread above k", SpotlightConfig{K: 32, Z: 8, Spread: 64}},
	}
	g := clusteredGraph(t)
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runChunks(g.Edges, tc.cfg, func(i int, allowed []int) (Runner, error) {
				return nil, errors.New("unreachable")
			})
			if err == nil {
				t.Error("want config error")
			}
		})
	}
}

func TestSpreadForCoversAllPartitions(t *testing.T) {
	for _, spread := range []int{4, 8, 16, 32} {
		cfg := SpotlightConfig{K: 32, Z: 8, Spread: spread}
		covered := make(map[int]bool)
		for i := 0; i < cfg.Z; i++ {
			parts := cfg.SpreadFor(i)
			if len(parts) != spread {
				t.Fatalf("spread=%d: instance %d got %d partitions", spread, i, len(parts))
			}
			for _, p := range parts {
				if p < 0 || p >= 32 {
					t.Fatalf("spread=%d: partition %d out of range", spread, p)
				}
				covered[p] = true
			}
		}
		if len(covered) != 32 {
			t.Errorf("spread=%d: only %d partitions covered", spread, len(covered))
		}
	}
}

func TestSpreadForDisjointAtMinimum(t *testing.T) {
	cfg := SpotlightConfig{K: 32, Z: 8, Spread: 4}
	seen := make(map[int]int)
	for i := 0; i < cfg.Z; i++ {
		for _, p := range cfg.SpreadFor(i) {
			seen[p]++
		}
	}
	for p, c := range seen {
		if c != 1 {
			t.Errorf("partition %d owned by %d instances at minimal spread", p, c)
		}
	}
}

// TestSpreadForWrapsAroundModuloK pins the wrap-around semantics when
// Spread > K/Z: the last instances' blocks run past partition K-1 and must
// wrap to the low partition ids, staying in range and duplicate-free.
func TestSpreadForWrapsAroundModuloK(t *testing.T) {
	cfg := SpotlightConfig{K: 8, Z: 4, Spread: 4}
	// Instance 3 starts at 3·(8/4) = 6 and wraps: {6, 7, 0, 1}.
	got := cfg.SpreadFor(3)
	want := []int{6, 7, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("SpreadFor(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SpreadFor(3) = %v, want %v", got, want)
		}
	}
	// Every instance at every legal over-minimum spread yields distinct
	// in-range partitions.
	for _, spread := range []int{2, 4, 6, 8} {
		cfg := SpotlightConfig{K: 8, Z: 4, Spread: spread}
		for i := 0; i < cfg.Z; i++ {
			parts := cfg.SpreadFor(i)
			seen := make(map[int]bool, len(parts))
			for _, p := range parts {
				if p < 0 || p >= cfg.K {
					t.Fatalf("spread=%d instance %d: partition %d out of range", spread, i, p)
				}
				if seen[p] {
					t.Fatalf("spread=%d instance %d: partition %d duplicated in %v", spread, i, p, parts)
				}
				seen[p] = true
			}
		}
	}
}

func TestRunSpotlightAssignsEverything(t *testing.T) {
	g := clusteredGraph(t)
	cfg := SpotlightConfig{K: 16, Z: 4, Spread: 4}
	a, err := runChunks(g.Edges, cfg, func(i int, allowed []int) (Runner, error) {
		h, err := partition.NewHDRF(partition.Config{K: 16, Allowed: allowed, Seed: uint64(i)}, partition.HDRFDefaultLambda)
		if err != nil {
			return nil, err
		}
		return FromPartitioner(h), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Fatalf("spotlight assigned %d of %d edges", a.Len(), g.E())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpotlightRespectsSpreads(t *testing.T) {
	g := clusteredGraph(t)
	cfg := SpotlightConfig{K: 8, Z: 4, Spread: 2, Sequential: true}
	instanceParts := make(map[int][]int)
	a, err := runChunks(g.Edges, cfg, func(i int, allowed []int) (Runner, error) {
		instanceParts[i] = allowed
		return New("hash", Spec{K: 8, Allowed: allowed})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk i's edges may only land on instance i's spread.
	chunks := stream.Chunks(g.Edges, cfg.Z)
	idx := 0
	for i, ch := range chunks {
		ok := make(map[int32]bool)
		for _, p := range instanceParts[i] {
			ok[int32(p)] = true
		}
		for range ch {
			if !ok[a.Parts[idx]] {
				t.Fatalf("edge %d of chunk %d assigned to %d outside spread %v", idx, i, a.Parts[idx], instanceParts[i])
			}
			idx++
		}
	}
}

func TestSpotlightReducesReplicationForAllStrategies(t *testing.T) {
	// The Figure 8 claim: smaller spread → smaller replication degree, for
	// DBH, HDRF and ADWISE alike. The paper measures this on Brain with
	// the natural file order — spotlight's win is preserving the locality
	// already present in the stream, so no shuffle here.
	g, err := gen.BrainLike(0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges

	for _, name := range []string{"dbh", "hdrf", "adwise"} {
		rf := func(spread int) float64 {
			cfg := SpotlightConfig{K: 32, Z: 8, Spread: spread}
			a, err := runChunks(edges, cfg, cfg.Instances(name, Spec{K: 32, Seed: 9, Window: 32}))
			if err != nil {
				t.Fatalf("%s spread=%d: %v", name, spread, err)
			}
			return metrics.Summarize(a).ReplicationDegree
		}
		full, spot := rf(32), rf(4)
		if spot >= full {
			t.Errorf("%s: spotlight spread=4 RF %v not below full-spread RF %v", name, spot, full)
		}
	}
}

func TestSpotlightBuilderErrorPropagates(t *testing.T) {
	g := clusteredGraph(t)
	cfg := SpotlightConfig{K: 4, Z: 2, Spread: 2}
	wantErr := errors.New("boom")
	_, err := runChunks(g.Edges, cfg, func(i int, allowed []int) (Runner, error) {
		return nil, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("builder error not propagated: %v", err)
	}
}

func TestSpotlightRunnerErrorPropagates(t *testing.T) {
	g := clusteredGraph(t)
	cfg := SpotlightConfig{K: 4, Z: 2, Spread: 2}
	wantErr := errors.New("runner failed")
	_, err := runChunks(g.Edges, cfg, func(i int, allowed []int) (Runner, error) {
		if i == 1 {
			return RunnerFunc(func(s stream.Stream) (*metrics.Assignment, error) {
				return nil, wantErr
			}), nil
		}
		return New("hash", Spec{K: 4, Allowed: allowed})
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("runner error not propagated: %v", err)
	}
}

func TestSpotlightEmptyEdges(t *testing.T) {
	cfg := SpotlightConfig{K: 4, Z: 2, Spread: 2}
	if _, err := runChunks(nil, cfg, func(i int, allowed []int) (Runner, error) {
		return nil, fmt.Errorf("unreachable")
	}); err == nil {
		t.Error("empty edges accepted")
	}
}

func TestSpotlightFewerEdgesThanZ(t *testing.T) {
	// stream.Chunks clamps z when len(edges) < z; silently building fewer
	// runners than Z would leave some spreads' partitions unreachable with
	// no signal. ChunkStreams must reject the degenerate case instead.
	cfg := SpotlightConfig{K: 8, Z: 4, Spread: 2}
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	_, err := runChunks(edges, cfg, func(i int, allowed []int) (Runner, error) {
		return New("hash", Spec{K: 8, Allowed: allowed})
	})
	if err == nil {
		t.Fatal("3 edges accepted for Z=4 instances")
	}
	if !strings.Contains(err.Error(), "Z=4") || !strings.Contains(err.Error(), "3") {
		t.Errorf("degenerate-case error not descriptive: %v", err)
	}
	// Exactly Z edges is the smallest legal input: one edge per instance.
	edges = append(edges, graph.Edge{Src: 3, Dst: 4})
	a, err := runChunks(edges, cfg, func(i int, allowed []int) (Runner, error) {
		return New("hash", Spec{K: 8, Allowed: allowed})
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 {
		t.Errorf("assigned %d of 4 edges", a.Len())
	}
}

func TestRunSpotlightStreamsCountMismatch(t *testing.T) {
	cfg := SpotlightConfig{K: 4, Z: 2, Spread: 2}
	streams := []stream.Stream{stream.FromEdges(edgesN(4))}
	if _, _, err := RunSpotlightStreamsStats(streams, cfg, func(i int, allowed []int) (Runner, error) {
		return New("hash", Spec{K: 4, Allowed: allowed})
	}); err == nil {
		t.Error("1 stream accepted for Z=2 instances")
	}
}

// TestSpotlightSingleInstanceReturnsItsAssignment pins that at Z = 1 the
// executor hands back the instance's assignment itself, not a merged copy
// of it, and that a K mismatch still fails there.
func TestSpotlightSingleInstanceReturnsItsAssignment(t *testing.T) {
	streams := []stream.Stream{stream.FromEdges(edgesN(4))}
	own := metrics.NewAssignment(4, 0)
	a, _, err := RunSpotlightStreamsStats(streams, SpotlightConfig{K: 4, Z: 1, Spread: 4}, func(i int, allowed []int) (Runner, error) {
		return RunnerFunc(func(s stream.Stream) (*metrics.Assignment, error) { return own, nil }), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != own {
		t.Error("Z=1 returned a copy of the instance's assignment")
	}
	if _, _, err := RunSpotlightStreamsStats(streams, SpotlightConfig{K: 2, Z: 1, Spread: 2}, func(i int, allowed []int) (Runner, error) {
		return RunnerFunc(func(s stream.Stream) (*metrics.Assignment, error) { return own, nil }), nil
	}); err == nil {
		t.Error("Z=1 accepted an instance assignment with k=4 for K=2")
	}
}

func TestRunSpotlightStreamsEnforcesStreamErrors(t *testing.T) {
	// Even a Runner that ignores the stream error contract must not turn a
	// failing stream into a short success: the executor checks stream.Err.
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\nbroken\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := SpotlightConfig{K: 2, Z: 2, Spread: 1, Sequential: true}
	streams, closeAll, err := OpenFileStreams(path, cfg.Z, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	careless := RunnerFunc(func(s stream.Stream) (*metrics.Assignment, error) {
		a := metrics.NewAssignment(2, 4)
		var buf [8]graph.Edge
		for {
			n := stream.NextBatch(s, buf[:])
			if n == 0 {
				return a, nil // no stream.Err check — deliberately buggy
			}
			for _, e := range buf[:n] {
				a.Add(e, 0)
			}
		}
	})
	_, _, err = RunSpotlightStreamsStats(streams, cfg, func(i int, allowed []int) (Runner, error) {
		return careless, nil
	})
	if err == nil {
		t.Error("executor accepted a failing segment stream drained by a careless runner")
	}
}

func TestSpotlightSequentialMatchesParallel(t *testing.T) {
	g := clusteredGraph(t)
	build := func(i int, allowed []int) (Runner, error) {
		return New("hdrf", Spec{K: 8, Allowed: allowed, Seed: 5})
	}
	seq, err := runChunks(g.Edges, SpotlightConfig{K: 8, Z: 4, Spread: 2, Sequential: true}, build)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runChunks(g.Edges, SpotlightConfig{K: 8, Z: 4, Spread: 2}, build)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != par.Len() {
		t.Fatalf("lengths differ: %d vs %d", seq.Len(), par.Len())
	}
	for i := range seq.Parts {
		if seq.Parts[i] != par.Parts[i] {
			t.Fatalf("sequential and parallel spotlight diverge at edge %d", i)
		}
	}
}

// TestSpotlightScoreWorkersInvariant pins the cross-layer determinism
// contract: under spotlight loading, the per-instance score-worker count
// must not change a single assignment — only wall-clock. Auto (0) divides
// the machine's cores among the z instances; explicit values are honoured
// per instance.
func TestSpotlightScoreWorkersInvariant(t *testing.T) {
	g := clusteredGraph(t)
	cfg := SpotlightConfig{K: 8, Z: 2, Spread: 4, Sequential: true}
	run := func(workers int) *metrics.Assignment {
		t.Helper()
		a, err := runChunks(g.Edges, cfg, cfg.Instances("adwise", Spec{
			K:            8,
			Window:       128,
			ScoreWorkers: workers,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	serial := run(1)
	for _, workers := range []int{2, 4} {
		parallel := run(workers)
		if parallel.Len() != serial.Len() {
			t.Fatalf("workers=%d assigned %d edges, serial %d", workers, parallel.Len(), serial.Len())
		}
		for i := range serial.Edges {
			if serial.Edges[i] != parallel.Edges[i] || serial.Parts[i] != parallel.Parts[i] {
				t.Fatalf("workers=%d diverged from serial at assignment %d", workers, i)
			}
		}
	}
}

// TestSplitScoreWorkers pins the explicit-budget distribution rule: an
// explicit total is spread across instances with the remainder over the
// first total%z instances (no stranded cores — the historical floor
// division lost up to z−1 of a requested budget), never below 1 per
// instance; auto (0) stays auto everywhere (the shared pool arbitrates);
// sequential runs keep the whole budget per instance.
func TestSplitScoreWorkers(t *testing.T) {
	tests := []struct {
		total, z   int
		sequential bool
		want       []int
	}{
		{0, 3, false, []int{0, 0, 0}}, // auto stays auto
		{0, 2, true, []int{0, 0}},     // auto stays auto, sequential too
		{8, 3, false, []int{3, 3, 2}}, // remainder spread, Σ = total
		{8, 8, false, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{3, 8, false, []int{1, 1, 1, 1, 1, 1, 1, 1}}, // min 1 each
		{7, 4, false, []int{2, 2, 2, 1}},
		{6, 3, true, []int{6, 6, 6}}, // sequential: full budget each
		{5, 1, false, []int{5}},
	}
	for _, tc := range tests {
		got := splitScoreWorkers(tc.total, tc.z, tc.sequential)
		if len(got) != len(tc.want) {
			t.Errorf("splitScoreWorkers(%d,%d,%v) = %v, want %v", tc.total, tc.z, tc.sequential, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitScoreWorkers(%d,%d,%v) = %v, want %v", tc.total, tc.z, tc.sequential, got, tc.want)
				break
			}
		}
	}
	// No stranded budget: for totals ≥ z the shares must sum to the total.
	for _, tc := range []struct{ total, z int }{{8, 3}, {9, 4}, {16, 5}, {7, 7}} {
		sum := 0
		for _, s := range splitScoreWorkers(tc.total, tc.z, false) {
			sum += s
		}
		if sum != tc.total {
			t.Errorf("splitScoreWorkers(%d,%d) strands budget: shares sum to %d", tc.total, tc.z, sum)
		}
	}
}

// TestInstancesSplitScoreWorkers checks that Instances hands each
// instance its share of an explicit scoring shard budget.
func TestInstancesSplitScoreWorkers(t *testing.T) {
	g := clusteredGraph(t)
	cfg := SpotlightConfig{K: 6, Z: 3, Spread: 2}
	streams, err := ChunkStreams(g.Edges, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunSpotlightStreamsStats(streams, cfg, cfg.Instances("adwise", Spec{Window: 16, ScoreWorkers: 8}))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{3, 3, 2} {
		if stats[i].ScoreWorkers != want {
			t.Errorf("instance %d resolved %d score workers, want %d", i, stats[i].ScoreWorkers, want)
		}
	}
}

// skewedSegments builds the skew fixture of the shared-pool tests: one
// dense RMAT segment and z−1 sparse path segments, the workload shape
// where a static cores/z split leaves most of the machine idle while the
// dense instance is compute-bound.
func skewedSegments(t testing.TB, z, denseEdges int) []stream.Stream {
	t.Helper()
	scale := 1
	for 1<<scale < denseEdges/8 {
		scale++
	}
	g, err := gen.RMAT(scale, denseEdges, 0.57, 0.19, 0.19, 11)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]stream.Stream, z)
	streams[0] = stream.FromEdges(g.Edges)
	sparse := max(denseEdges/16, 8)
	for i := 1; i < z; i++ {
		streams[i] = stream.FromEdges(edgesN(sparse))
	}
	return streams
}

func runSkewed(t *testing.T, streams []stream.Stream, cfg SpotlightConfig, workers int) (*metrics.Assignment, []Stats) {
	t.Helper()
	a, stats, err := RunSpotlightStreamsStats(streams, cfg, func(i int, allowed []int) (Runner, error) {
		return New("adwise", Spec{
			K:            cfg.K,
			Allowed:      allowed,
			Window:       256,
			Seed:         uint64(i),
			ScoreWorkers: workers,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, stats
}

// TestSpotlightSkewSharedPoolIdentity is the skew determinism contract:
// on deliberately skewed segments (one dense RMAT chunk, z−1 sparse
// ones), assignments under the shared work-stealing pool must be
// edge-for-edge identical to the fully serial run — under -race this is
// also the shared-pool data-race check — and, when the machine has more
// than one core, the dense instance's passes must actually have been
// served by pool workers (steal count > 0): the stolen cores a static
// cores/z split could never lend it.
func TestSpotlightSkewSharedPoolIdentity(t *testing.T) {
	const z = 4
	cfg := SpotlightConfig{K: 8, Z: z, Spread: 2}
	streams := func() []stream.Stream { return skewedSegments(t, z, 30_000) }

	serial, _ := runSkewed(t, streams(), cfg, 1)
	if serial.Len() == 0 {
		t.Fatal("serial skew run assigned nothing")
	}
	for _, workers := range []int{2, gort.GOMAXPROCS(0)} {
		shared, stats := runSkewed(t, streams(), cfg, workers)
		if shared.Len() != serial.Len() {
			t.Fatalf("workers=%d assigned %d edges, serial %d", workers, shared.Len(), serial.Len())
		}
		for i := range serial.Edges {
			if serial.Edges[i] != shared.Edges[i] || serial.Parts[i] != shared.Parts[i] {
				t.Fatalf("workers=%d diverged from serial at assignment %d: %v→%d vs %v→%d",
					workers, i, serial.Edges[i], serial.Parts[i], shared.Edges[i], shared.Parts[i])
			}
		}
		if workers > 1 && gort.GOMAXPROCS(0) > 1 {
			if stats[0].ParallelScorePasses == 0 {
				t.Errorf("workers=%d: dense instance ran no pool passes", workers)
			}
			if stats[0].StolenScoreShards == 0 {
				t.Errorf("workers=%d: dense instance had no shards stolen — the shared pool never flexed cores to it", workers)
			}
		}
	}
}

// TestSpotlightSharedPoolStatsAggregate pins per-instance attribution on
// the shared pool (satellite: no double-counting, no lost ops): each
// instance's pool ops live in its own shard scratches, instance sums stay
// within its ScoreComputations, and AggregateStats reproduces the plain
// sums/maxima of the per-instance stats.
func TestSpotlightSharedPoolStatsAggregate(t *testing.T) {
	const z = 4
	cfg := SpotlightConfig{K: 8, Z: z, Spread: 2}
	_, stats := runSkewed(t, skewedSegments(t, z, 20_000), cfg, 2)
	if len(stats) != z {
		t.Fatalf("got %d per-instance stats, want %d", len(stats), z)
	}
	var wantAssign, wantOps, wantPasses, wantPool, wantStolen int64
	var wantLat time.Duration
	for i, st := range stats {
		if st.Assignments == 0 {
			t.Errorf("instance %d reports 0 assignments", i)
		}
		if st.PoolScoreOps > st.ScoreComputations {
			t.Errorf("instance %d: pool ops %d exceed its total score ops %d — cross-instance leakage",
				i, st.PoolScoreOps, st.ScoreComputations)
		}
		wantAssign += st.Assignments
		wantOps += st.ScoreComputations
		wantPasses += st.ParallelScorePasses
		wantPool += st.PoolScoreOps
		wantStolen += st.StolenScoreShards
		if st.PartitioningLatency > wantLat {
			wantLat = st.PartitioningLatency
		}
	}
	agg := AggregateStats(stats)
	if agg.Assignments != wantAssign {
		t.Errorf("aggregate Assignments = %d, want %d", agg.Assignments, wantAssign)
	}
	if agg.ScoreComputations != wantOps {
		t.Errorf("aggregate ScoreComputations = %d, want %d", agg.ScoreComputations, wantOps)
	}
	if agg.ParallelScorePasses != wantPasses {
		t.Errorf("aggregate ParallelScorePasses = %d, want %d", agg.ParallelScorePasses, wantPasses)
	}
	if agg.PoolScoreOps != wantPool {
		t.Errorf("aggregate PoolScoreOps = %d, want %d", agg.PoolScoreOps, wantPool)
	}
	if agg.StolenScoreShards != wantStolen {
		t.Errorf("aggregate StolenScoreShards = %d, want %d", agg.StolenScoreShards, wantStolen)
	}
	if agg.PartitioningLatency != wantLat {
		t.Errorf("aggregate latency = %v, want max %v", agg.PartitioningLatency, wantLat)
	}
}
