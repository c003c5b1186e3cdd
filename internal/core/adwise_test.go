package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/partition"
	"github.com/adwise-go/adwise/internal/stream"
)

func clusteredGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Community(60, 10, 0.9, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		k    int
		opts []Option
	}{
		{"k=0", 0, nil},
		{"bad allowed", 4, []Option{WithAllowedPartitions([]int{4})}},
		{"zero window", 4, []Option{WithInitialWindow(0)}},
		{"max below initial", 4, []Option{WithInitialWindow(8), WithMaxWindow(4)}},
		{"bad epsilon", 4, []Option{WithEpsilon(2)}},
		{"bad candidates", 4, []Option{WithMaxCandidates(0)}},
		{"inverted lambda", 4, []Option{WithLambdaBounds(5, 1)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.k, tc.opts...); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRunAssignsEveryEdgeOnce(t *testing.T) {
	g := clusteredGraph(t)
	for _, w := range []int{1, 7, 64} {
		ad, err := New(8, WithInitialWindow(w), WithFixedWindow())
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(stream.FromGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != g.E() {
			t.Fatalf("w=%d: assigned %d of %d edges", w, a.Len(), g.E())
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		// Window reorders the stream but must not lose or duplicate edges.
		counts := make(map[graph.Edge]int, g.E())
		for _, e := range g.Edges {
			counts[e]++
		}
		for _, e := range a.Edges {
			counts[e]--
		}
		for e, c := range counts {
			if c != 0 {
				t.Fatalf("w=%d: edge %v count off by %d", w, e, c)
			}
		}
		if got := ad.Stats().Assignments; got != int64(g.E()) {
			t.Errorf("w=%d: stats report %d assignments", w, got)
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	ad, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	g := clusteredGraph(t)
	if _, err := ad.Run(stream.FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromGraph(g)); err == nil {
		t.Error("second Run succeeded, want single-use error")
	}
}

func TestCacheConsistency(t *testing.T) {
	g := clusteredGraph(t)
	ad, err := New(8, WithInitialWindow(32), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	s := metrics.Summarize(a)
	if got := ad.Cache().ReplicationDegree(); !closeTo(got, s.ReplicationDegree, 1e-9) {
		t.Errorf("cache RF %v != recomputed %v", got, s.ReplicationDegree)
	}
}

func closeTo(a, b, eps float64) bool {
	d := a - b
	return d < eps && d > -eps
}

func TestDeterminism(t *testing.T) {
	g := clusteredGraph(t)
	run := func() *metrics.Assignment {
		ad, err := New(8, WithInitialWindow(64), WithFixedWindow())
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(stream.FromGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := run(), run()
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] || a.Edges[i] != b.Edges[i] {
			t.Fatalf("runs differ at edge %d", i)
		}
	}
}

func TestBalanceHeld(t *testing.T) {
	g := clusteredGraph(t)
	edges := stream.Shuffled(g.Edges, 3)
	ad, err := New(16, WithInitialWindow(64), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	s := metrics.Summarize(a)
	// Paper reports all results at (max-min)/max < 0.05; the adaptive λ
	// must keep the partitioning in that band.
	if s.Imbalance > 0.05 {
		t.Errorf("imbalance %v above the paper's 0.05 band (%+v)", s.Imbalance, s)
	}
}

func TestWindowImprovesQualityOnClusteredGraph(t *testing.T) {
	g := clusteredGraph(t)
	edges := stream.Shuffled(g.Edges, 3)
	rf := func(w int) float64 {
		ad, err := New(8, WithInitialWindow(w), WithFixedWindow())
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(stream.FromEdges(edges))
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Summarize(a).ReplicationDegree
	}
	rf1, rf128 := rf(1), rf(128)
	if rf128 >= rf1 {
		t.Errorf("window did not help on clustered graph: RF(w=1)=%v RF(w=128)=%v", rf1, rf128)
	}
}

func TestBeatsHDRFOnClusteredGraph(t *testing.T) {
	// The paper's headline quality claim at moderate window sizes.
	g := clusteredGraph(t)
	edges := stream.Shuffled(g.Edges, 3)
	h, err := partition.NewHDRF(partition.Config{K: 8}, partition.HDRFDefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := partition.Run(stream.FromEdges(edges), h)
	if err != nil {
		t.Fatal(err)
	}
	rfHDRF := metrics.Summarize(ha).ReplicationDegree

	ad, err := New(8, WithInitialWindow(256), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	rfADWISE := metrics.Summarize(a).ReplicationDegree
	if rfADWISE >= rfHDRF {
		t.Errorf("ADWISE RF %v not better than HDRF RF %v", rfADWISE, rfHDRF)
	}
}

func TestLazyMatchesEagerQuality(t *testing.T) {
	// Lazy traversal is an efficiency device; its quality must stay close
	// to the eager full-rescan variant (the paper argues the same
	// assignments are made when candidates are selected right).
	g := clusteredGraph(t)
	edges := stream.Shuffled(g.Edges, 5)
	run := func(opts ...Option) float64 {
		ad, err := New(8, append([]Option{WithInitialWindow(64), WithFixedWindow()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(stream.FromEdges(edges))
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Summarize(a).ReplicationDegree
	}
	lazy := run()
	eager := run(WithEagerTraversal())
	if diff := (lazy - eager) / eager; diff > 0.10 {
		t.Errorf("lazy RF %v more than 10%% worse than eager RF %v", lazy, eager)
	}
}

func TestLazyDoesLessWork(t *testing.T) {
	g := clusteredGraph(t)
	edges := stream.Shuffled(g.Edges, 5)
	ops := func(opts ...Option) int64 {
		ad, err := New(8, append([]Option{WithInitialWindow(128), WithFixedWindow()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ad.Run(stream.FromEdges(edges)); err != nil {
			t.Fatal(err)
		}
		return ad.Stats().ScoreComputations
	}
	lazy := ops()
	eager := ops(WithEagerTraversal())
	if lazy >= eager {
		t.Errorf("lazy traversal did %d score ops, eager %d — no saving", lazy, eager)
	}
}

func TestWindowOneDegeneratesToSingleEdge(t *testing.T) {
	// With w=1 the edge universe has one edge: ADWISE must behave like a
	// single-edge scorer, i.e. never reorder the stream.
	g := clusteredGraph(t)
	ad, err := New(4, WithInitialWindow(1), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Edges {
		if a.Edges[i] != g.Edges[i] {
			t.Fatalf("w=1 reordered stream at %d", i)
		}
	}
}

func TestAdaptiveWindowGrowsWithGenerousBudget(t *testing.T) {
	// Fake clock: every Now() call advances 1µs, so measured per-edge
	// latency is tiny against a huge latency preference → C2 holds and the
	// window doubles (as long as C1 holds too).
	fake := clock.NewFake(time.Unix(0, 0))
	fake.SetStep(time.Microsecond)
	g := clusteredGraph(t)
	ad, err := New(8,
		WithClock(fake),
		WithLatencyPreference(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	st := ad.Stats()
	if st.PeakWindow <= 1 {
		t.Errorf("window never grew: peak %d, trace %v", st.PeakWindow, st.WindowTrace)
	}
}

func TestAdaptiveWindowStaysSmallWithZeroBudget(t *testing.T) {
	// L=0: condition C2 always false → window must stay at 1 (single-edge
	// streaming, §III-A).
	fake := clock.NewFake(time.Unix(0, 0))
	fake.SetStep(time.Microsecond)
	g := clusteredGraph(t)
	ad, err := New(8, WithClock(fake)) // no latency preference
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	if st := ad.Stats(); st.PeakWindow != 1 {
		t.Errorf("window grew to %d without a latency budget", st.PeakWindow)
	}
}

func TestAdaptiveWindowRespectsMaxWindow(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	fake.SetStep(time.Microsecond)
	g := clusteredGraph(t)
	ad, err := New(8,
		WithClock(fake),
		WithLatencyPreference(time.Hour),
		WithMaxWindow(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	st := ad.Stats()
	if st.PeakWindow > 16 {
		t.Errorf("window %d exceeded cap 16 (trace %v)", st.PeakWindow, st.WindowTrace)
	}
	if st.PeakWindow != 16 {
		t.Errorf("window with infinite budget should reach the cap 16, peaked at %d", st.PeakWindow)
	}
	// Every resize in the trace must be a doubling or halving.
	prev := 1
	for _, ch := range st.WindowTrace {
		if ch.NewSize != prev*2 && ch.NewSize != prev/2 && ch.NewSize != 1 {
			t.Errorf("resize %d → %d is not a doubling/halving", prev, ch.NewSize)
		}
		prev = ch.NewSize
	}
}

func TestAdaptiveWindowShrinksWhenBudgetTightens(t *testing.T) {
	// Start with a big window and a deadline that is already almost
	// exhausted: ¬C2 must halve the window back toward the floor.
	fake := clock.NewFake(time.Unix(0, 0))
	fake.SetStep(100 * time.Millisecond) // brutal per-observation cost
	g := clusteredGraph(t)
	ad, err := New(8,
		WithClock(fake),
		WithLatencyPreference(time.Second),
		WithInitialWindow(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	st := ad.Stats()
	if st.FinalWindow != 64 {
		t.Errorf("FinalWindow = %d, want shrink floor at initial window 64", st.FinalWindow)
	}
	// The floor is the initial window; verify no growth happened.
	if st.PeakWindow > 64 {
		t.Errorf("window grew to %d under an exhausted budget", st.PeakWindow)
	}
}

func TestLambdaStaysClamped(t *testing.T) {
	g := clusteredGraph(t)
	ad, err := New(8, WithInitialWindow(16), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	if l := ad.Stats().FinalLambda; l < DefaultLambdaMin || l > DefaultLambdaMax {
		t.Errorf("final λ %v escaped [%v,%v]", l, DefaultLambdaMin, DefaultLambdaMax)
	}
}

func TestFixedLambdaPins(t *testing.T) {
	g := clusteredGraph(t)
	ad, err := New(8, WithFixedLambda(1.1), WithInitialWindow(8), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	if l := ad.Stats().FinalLambda; l != 1.1 {
		t.Errorf("fixed λ drifted to %v", l)
	}
}

func TestAllowedPartitionsRespected(t *testing.T) {
	g := clusteredGraph(t)
	allowed := []int{1, 3, 6}
	ad, err := New(8, WithAllowedPartitions(allowed), WithInitialWindow(16), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	ok := map[int32]bool{1: true, 3: true, 6: true}
	for i, p := range a.Parts {
		if !ok[p] {
			t.Fatalf("edge %d assigned outside spread: %d", i, p)
		}
	}
}

func TestClusteringScoreHelpsOnCliqueCommunities(t *testing.T) {
	g := clusteredGraph(t)
	edges := stream.Shuffled(g.Edges, 9)
	rf := func(on bool) float64 {
		ad, err := New(8, WithInitialWindow(128), WithFixedWindow(), WithClusteringScore(on))
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(stream.FromEdges(edges))
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Summarize(a).ReplicationDegree
	}
	with, without := rf(true), rf(false)
	if with > without*1.05 {
		t.Errorf("clustering score hurt badly on clique communities: with=%v without=%v", with, without)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := clusteredGraph(t)
	ad, err := New(8, WithInitialWindow(32), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromGraph(g)); err != nil {
		t.Fatal(err)
	}
	st := ad.Stats()
	if st.ScoreComputations == 0 {
		t.Error("ScoreComputations = 0")
	}
	if st.MeanAssignScore <= 0 {
		t.Errorf("MeanAssignScore = %v, want > 0", st.MeanAssignScore)
	}
	if st.FinalWindow < 1 {
		t.Errorf("FinalWindow = %d", st.FinalWindow)
	}
	if ad.Name() != "adwise" {
		t.Errorf("Name = %q", ad.Name())
	}
}

func TestEmptyStream(t *testing.T) {
	ad, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromEdges(nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 0 {
		t.Errorf("assigned %d edges from empty stream", a.Len())
	}
}

func TestSelfLoopStream(t *testing.T) {
	edges := []graph.Edge{{Src: 1, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 2}}
	ad, err := New(4, WithInitialWindow(4), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 {
		t.Errorf("assigned %d of 3 edges with self-loops", a.Len())
	}
}

func TestRunReturnsStreamError(t *testing.T) {
	// A file stream that fails mid-pass (malformed line) must fail Run:
	// stream exhaustion with a pending error is never a short success.
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\nbroken\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := stream.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ad, err := New(4, WithInitialWindow(2), WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	if a, err := ad.Run(fs); err == nil {
		t.Fatalf("Run on failing stream returned %d edges and no error", a.Len())
	}
}
