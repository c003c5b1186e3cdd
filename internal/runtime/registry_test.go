package runtime

import (
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/partition"
	"github.com/adwise-go/adwise/internal/stream"
)

func TestRegistryHasAllStrategies(t *testing.T) {
	want := []string{"1d", "2d", "adwise", "dbh", "greedy", "grid", "hash", "hdrf", "ne"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestBaselinesOrder(t *testing.T) {
	want := []string{"hash", "1d", "2d", "grid", "greedy", "dbh", "hdrf"}
	got := Baselines()
	if len(got) != len(want) {
		t.Fatalf("Baselines() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Baselines() = %v, want %v", got, want)
		}
	}
}

func TestMetaDrivenFilters(t *testing.T) {
	sweep := NamesWhere(func(m Meta) bool { return m.Sweep })
	if len(sweep) != 2 || sweep[0] != "dbh" || sweep[1] != "hdrf" {
		t.Errorf("sweep baselines = %v, want [dbh hdrf]", sweep)
	}
	windows := NamesWhere(func(m Meta) bool { return m.Class == ClassWindow })
	if len(windows) != 1 || windows[0] != "adwise" {
		t.Errorf("window strategies = %v, want [adwise]", windows)
	}
	allEdge := NamesWhere(func(m Meta) bool { return m.Class == ClassAllEdge })
	if len(allEdge) != 1 || allEdge[0] != "ne" {
		t.Errorf("all-edge strategies = %v, want [ne]", allEdge)
	}
	// Every registered name carries a meta with a class, and every
	// single-edge baseline is classed as such.
	for _, name := range Names() {
		m, ok := MetaOf(name)
		if !ok || m.Name != name {
			t.Fatalf("MetaOf(%q) = (%+v, %v)", name, m, ok)
		}
		if m.Class == "" {
			t.Errorf("strategy %q registered without a class", name)
		}
	}
	for _, name := range Baselines() {
		if m, _ := MetaOf(name); m.Class != ClassSingleEdge {
			t.Errorf("baseline %q classed %q, want %q", name, m.Class, ClassSingleEdge)
		}
	}
	if _, ok := MetaOf("bogus"); ok {
		t.Error("MetaOf returned metadata for an unregistered name")
	}
}

func TestNewUnknownStrategy(t *testing.T) {
	if _, err := New("bogus", Spec{K: 4}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := NewPartitioner("bogus", partition.Config{K: 4}); err == nil {
		t.Error("unknown baseline accepted")
	}
	// adwise and ne are not single-edge baselines.
	if _, err := NewPartitioner("adwise", partition.Config{K: 4}); err == nil {
		t.Error("adwise constructible as a raw partitioner")
	}
}

func TestEveryStrategyRunsAndReportsStats(t *testing.T) {
	g := clusteredGraph(t)
	for _, name := range Names() {
		s, err := New(name, Spec{K: 8, Seed: 3, Window: 16})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("strategy %q reports name %q", name, s.Name())
		}
		a, err := s.Run(stream.FromEdges(g.Edges))
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if a.Len() != g.E() {
			t.Errorf("%s assigned %d of %d edges", name, a.Len(), g.E())
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		st := s.Stats()
		if st.Assignments != int64(g.E()) {
			t.Errorf("%s: Stats.Assignments = %d, want %d", name, st.Assignments, g.E())
		}
		if st.Vertices != g.V() {
			t.Errorf("%s: Stats.Vertices = %d, want %d", name, st.Vertices, g.V())
		}
	}
}

func TestSpecAllowedRestrictsAssignments(t *testing.T) {
	g := clusteredGraph(t)
	allowed := []int{1, 3}
	for _, name := range Baselines() {
		s, err := New(name, Spec{K: 8, Allowed: allowed, Seed: 1})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		a, err := s.Run(stream.FromEdges(g.Edges))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range a.Parts {
			if p != 1 && p != 3 {
				t.Fatalf("%s: edge %d assigned to %d outside allowed %v", name, i, p, allowed)
			}
		}
	}
}

func TestSpecLambdaReachesHDRF(t *testing.T) {
	s, err := New("hdrf", Spec{K: 8, Lambda: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	type lambdaer interface{ Partitioner() partition.Partitioner }
	h, ok := s.(lambdaer).Partitioner().(*partition.HDRF)
	if !ok {
		t.Fatal("hdrf strategy does not wrap *partition.HDRF")
	}
	if h.Lambda() != 2.5 {
		t.Errorf("Lambda = %v, want 2.5", h.Lambda())
	}
}

func TestAdwiseSpecKnobs(t *testing.T) {
	g := clusteredGraph(t)
	s, err := New("adwise", Spec{K: 8, Latency: time.Second, Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run(stream.FromEdges(g.Edges))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Fatalf("assigned %d of %d edges", a.Len(), g.E())
	}
	st := s.Stats()
	if st.FinalWindow != 32 || st.PeakWindow != 32 {
		t.Errorf("fixed window drifted: final=%d peak=%d, want 32", st.FinalWindow, st.PeakWindow)
	}
	if st.ScoreComputations == 0 {
		t.Error("adwise reported zero score computations")
	}
}

func TestNERestrictedSpreadRemaps(t *testing.T) {
	g := clusteredGraph(t)
	allowed := []int{2, 5}
	s, err := New("ne", Spec{K: 8, Allowed: allowed, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run(stream.FromEdges(g.Edges))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 8 {
		t.Fatalf("remapped assignment K = %d, want 8", a.K)
	}
	used := make(map[int32]bool)
	for i, p := range a.Parts {
		if p != 2 && p != 5 {
			t.Fatalf("edge %d assigned to %d outside allowed %v", i, p, allowed)
		}
		used[p] = true
	}
	if len(used) != len(allowed) {
		t.Errorf("ne used %d of %d allowed partitions", len(used), len(allowed))
	}
	if _, err := New("ne", Spec{K: 4, Allowed: []int{7}}); err == nil {
		t.Error("ne accepted an out-of-range allowed partition")
	}
}

func TestNEWorksUnderSpotlight(t *testing.T) {
	g := clusteredGraph(t)
	cfg := SpotlightConfig{K: 8, Z: 4, Spread: 2}
	a, err := runChunks(g.Edges, cfg, cfg.Instances("ne", Spec{K: 8, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Fatalf("ne spotlight assigned %d of %d edges", a.Len(), g.E())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyRunIsSingleUseForAdwise(t *testing.T) {
	g := clusteredGraph(t)
	s, err := New("adwise", Spec{K: 4, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(stream.FromEdges(g.Edges)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(stream.FromEdges(g.Edges)); err == nil {
		t.Error("second Run on the same adwise instance succeeded")
	}
}

// TestRunStrategySpotlightDefaultsSpecK checks that Instances builds the
// instances over the config's K when the Spec leaves K zero.
func TestRunStrategySpotlightDefaultsSpecK(t *testing.T) {
	g := clusteredGraph(t)
	cfg := SpotlightConfig{K: 8, Z: 4, Spread: 2}
	a, err := runChunks(g.Edges, cfg, cfg.Instances("hash", Spec{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Errorf("assigned %d of %d edges", a.Len(), g.E())
	}
	var _ *metrics.Assignment = a
}
