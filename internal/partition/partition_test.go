package partition

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
)

// allPartitioners builds one instance of every streaming strategy for k
// partitions; used by the shared-invariant tests.
func allPartitioners(t *testing.T, cfg Config) []Partitioner {
	t.Helper()
	hash, err := NewHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oneD, err := NewOneDim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twoD, err := NewTwoDim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dbh, err := NewDBH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NewGreedy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdrf, err := NewHDRF(cfg, HDRFDefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []Partitioner{hash, oneD, twoD, dbh, greedy, hdrf, grid}
}

// mustRun drains s through p, failing the test on a stream error.
func mustRun(t *testing.T, s stream.Stream, p Partitioner) *metrics.Assignment {
	t.Helper()
	a, err := Run(s, p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return a
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.HolmeKim(400, 4, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewHash(Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewHDRF(Config{K: 4, Allowed: []int{4}}, 1.1); err == nil {
		t.Error("allowed partition out of range accepted")
	}
	if _, err := NewHDRF(Config{K: 4}, -1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestEveryStrategyAssignsEveryEdgeInRange(t *testing.T) {
	g := testGraph(t)
	for _, p := range allPartitioners(t, Config{K: 8, Seed: 3}) {
		a := mustRun(t, stream.FromGraph(g), p)
		if a.Len() != g.E() {
			t.Errorf("%s: assigned %d of %d edges", p.Name(), a.Len(), g.E())
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
		if got := p.Cache().Assigned(); got != int64(g.E()) {
			t.Errorf("%s: cache counted %d assignments", p.Name(), got)
		}
	}
}

func TestCacheMatchesAssignment(t *testing.T) {
	// The partitioner's incremental vertex cache must agree with a from-
	// scratch recomputation of replica sets — the replica-consistency
	// invariant of the streaming model.
	g := testGraph(t)
	for _, p := range allPartitioners(t, Config{K: 8, Seed: 3}) {
		a := mustRun(t, stream.FromGraph(g), p)
		s := metrics.Summarize(a)
		if got := p.Cache().ReplicationDegree(); !closeTo(got, s.ReplicationDegree, 1e-9) {
			t.Errorf("%s: cache RF %v != recomputed RF %v", p.Name(), got, s.ReplicationDegree)
		}
		for part := 0; part < 8; part++ {
			if p.Cache().Size(part) != s.Sizes[part] {
				t.Errorf("%s: cache size[%d]=%d, recomputed %d", p.Name(), part, p.Cache().Size(part), s.Sizes[part])
			}
		}
	}
}

func closeTo(a, b, eps float64) bool {
	d := a - b
	return d < eps && d > -eps
}

func TestAllowedPartitionsRespected(t *testing.T) {
	g := testGraph(t)
	allowed := []int{2, 5, 7}
	allowedSet := map[int32]bool{2: true, 5: true, 7: true}
	for _, p := range allPartitioners(t, Config{K: 8, Allowed: allowed, Seed: 1}) {
		a := mustRun(t, stream.FromGraph(g), p)
		for i, part := range a.Parts {
			if !allowedSet[part] {
				t.Errorf("%s: edge %d assigned to %d outside spread %v", p.Name(), i, part, allowed)
				break
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph(t)
	for i := 0; i < 2; i++ {
		first := allPartitioners(t, Config{K: 8, Seed: 42})
		second := allPartitioners(t, Config{K: 8, Seed: 42})
		for j := range first {
			a := mustRun(t, stream.FromGraph(g), first[j])
			b := mustRun(t, stream.FromGraph(g), second[j])
			for idx := range a.Parts {
				if a.Parts[idx] != b.Parts[idx] {
					t.Errorf("%s: run not deterministic at edge %d", first[j].Name(), idx)
					break
				}
			}
		}
	}
}

func TestHashSeedChangesAssignment(t *testing.T) {
	g := testGraph(t)
	h1, _ := NewHash(Config{K: 8, Seed: 1})
	h2, _ := NewHash(Config{K: 8, Seed: 2})
	a := mustRun(t, stream.FromGraph(g), h1)
	b := mustRun(t, stream.FromGraph(g), h2)
	same := true
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical hash partitionings")
	}
}

func TestOneDimKeepsSourcesTogether(t *testing.T) {
	g := testGraph(t)
	o, _ := NewOneDim(Config{K: 8})
	a := mustRun(t, stream.FromGraph(g), o)
	bySrc := make(map[graph.VertexID]int32)
	for i, e := range a.Edges {
		if prev, ok := bySrc[e.Src]; ok && prev != a.Parts[i] {
			t.Fatalf("source %d split across partitions %d and %d", e.Src, prev, a.Parts[i])
		}
		bySrc[e.Src] = a.Parts[i]
	}
}

func TestTwoDimBoundsReplicas(t *testing.T) {
	g := testGraph(t)
	td, _ := NewTwoDim(Config{K: 16})
	a := mustRun(t, stream.FromGraph(g), td)
	r, c := gridShape(16)
	bound := r + c // a vertex appears in one row (c cells) or one column (r cells) at most... row+col is a safe bound
	for v, set := range a.ReplicaSets() {
		if set.Count() > bound {
			t.Errorf("vertex %d has %d replicas, 2D bound is %d", v, set.Count(), bound)
		}
	}
}

func TestGridShape(t *testing.T) {
	tests := []struct{ n, r, c int }{
		{16, 4, 4}, {32, 4, 8}, {12, 3, 4}, {7, 1, 7}, {1, 1, 1},
	}
	for _, tc := range tests {
		r, c := gridShape(tc.n)
		if r != tc.r || c != tc.c {
			t.Errorf("gridShape(%d) = %d,%d want %d,%d", tc.n, r, c, tc.r, tc.c)
		}
		if r*c != tc.n {
			t.Errorf("gridShape(%d) does not cover n", tc.n)
		}
	}
}

func TestGridConstraintBound(t *testing.T) {
	// Grid bounds replicas by row+col-1 cells.
	g := testGraph(t)
	gr, _ := NewGrid(Config{K: 16})
	a := mustRun(t, stream.FromGraph(g), gr)
	for v, set := range a.ReplicaSets() {
		if set.Count() > 7 { // 4+4-1
			t.Errorf("vertex %d has %d replicas, grid bound is 7", v, set.Count())
		}
	}
}

func TestDBHCutsHighDegreeVertex(t *testing.T) {
	// On a star, DBH hashes the spoke endpoint (degree 1 when first seen
	// vs the ever-growing hub), spreading the hub across partitions while
	// each spoke stays on a single partition.
	star, err := gen.Star(1000)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewDBH(Config{K: 8, Seed: 5})
	a := mustRun(t, stream.FromGraph(star), d)
	sets := a.ReplicaSets()
	if hub := sets[0].Count(); hub != 8 {
		t.Errorf("hub replicas = %d, want 8 (replicated everywhere)", hub)
	}
	for v := graph.VertexID(1); v < 1000; v++ {
		if sets[v].Count() != 1 {
			t.Errorf("spoke %d has %d replicas, want 1", v, sets[v].Count())
			break
		}
	}
	// Spokes must be spread: no partition may hold everything.
	s := metrics.Summarize(a)
	if s.MaxSize == int64(star.E()) {
		t.Error("DBH put the whole star on one partition")
	}
}

func TestGreedyKeepsPathLocal(t *testing.T) {
	// Streaming a path, Greedy keeps consecutive edges on one partition
	// until balance pushes it away: replication stays near 1.
	path, err := gen.Path(2000)
	if err != nil {
		t.Fatal(err)
	}
	gr, _ := NewGreedy(Config{K: 4})
	a := mustRun(t, stream.FromGraph(path), gr)
	s := metrics.Summarize(a)
	if s.ReplicationDegree > 1.01 {
		t.Errorf("greedy RF on path = %v, want <= 1.01", s.ReplicationDegree)
	}
}

func TestGreedyBeatsHashOnClusteredGraph(t *testing.T) {
	g, err := gen.Community(40, 10, 0.9, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges := stream.Shuffled(g.Edges, 1)
	h, _ := NewHash(Config{K: 8})
	gr, _ := NewGreedy(Config{K: 8})
	rfHash := metrics.Summarize(mustRun(t, stream.FromEdges(edges), h)).ReplicationDegree
	rfGreedy := metrics.Summarize(mustRun(t, stream.FromEdges(edges), gr)).ReplicationDegree
	if rfGreedy >= rfHash {
		t.Errorf("greedy RF %v not better than hash RF %v", rfGreedy, rfHash)
	}
}

func TestHDRFBalanceAndQuality(t *testing.T) {
	g := testGraph(t)
	edges := stream.Shuffled(g.Edges, 2)
	h, _ := NewHDRF(Config{K: 8}, HDRFDefaultLambda)
	a := mustRun(t, stream.FromEdges(edges), h)
	s := metrics.Summarize(a)
	if !s.BalanceOK(0.5) {
		t.Errorf("HDRF imbalance too high: %+v", s)
	}
	hash, _ := NewHash(Config{K: 8})
	rfHash := metrics.Summarize(mustRun(t, stream.FromEdges(edges), hash)).ReplicationDegree
	if s.ReplicationDegree >= rfHash {
		t.Errorf("HDRF RF %v not better than hash RF %v", s.ReplicationDegree, rfHash)
	}
	if h.Lambda() != HDRFDefaultLambda {
		t.Errorf("Lambda() = %v", h.Lambda())
	}
}

func TestHDRFHighLambdaBalancesHarder(t *testing.T) {
	g := testGraph(t)
	loose, _ := NewHDRF(Config{K: 8}, 0.01)
	tight, _ := NewHDRF(Config{K: 8}, 50)
	sLoose := metrics.Summarize(mustRun(t, stream.FromGraph(g), loose))
	sTight := metrics.Summarize(mustRun(t, stream.FromGraph(g), tight))
	if sTight.Imbalance > sLoose.Imbalance+1e-9 {
		t.Errorf("λ=50 imbalance %v worse than λ=0.01 imbalance %v", sTight.Imbalance, sLoose.Imbalance)
	}
}

func TestNEPartition(t *testing.T) {
	g := testGraph(t)
	a, err := NE{}.Partition(g, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Fatalf("NE assigned %d of %d edges", a.Len(), g.E())
	}
	s := metrics.Summarize(a)
	// NE is the high-quality reference: it must beat hashing comfortably.
	h, _ := NewHash(Config{K: 8})
	rfHash := metrics.Summarize(mustRun(t, stream.FromGraph(g), h)).ReplicationDegree
	if s.ReplicationDegree >= rfHash {
		t.Errorf("NE RF %v not better than hash RF %v", s.ReplicationDegree, rfHash)
	}
}

func TestNEErrors(t *testing.T) {
	if _, err := (NE{}).Partition(nil, 4, 1); err == nil {
		t.Error("nil graph accepted")
	}
	g := testGraph(t)
	if _, err := (NE{}).Partition(g, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

// badFileStream opens a file stream whose third line is malformed, wrapped
// the way production callers wrap it (buffered).
func badFileStream(t *testing.T) stream.Stream {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\nbroken\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := stream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return stream.NewBuffered(fs, 4)
}

func TestRunReturnsStreamError(t *testing.T) {
	// A stream failing mid-pass must fail Run — a silently-short
	// assignment reported as success is the bug this guards against.
	h, err := NewHDRF(Config{K: 4}, HDRFDefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := Run(badFileStream(t), h); err == nil {
		t.Fatalf("Run on failing stream returned %d edges and no error", a.Len())
	}
}

// Property: for any stream prefix and any strategy, partition sizes sum to
// the number of assigned edges.
func TestQuickSizesSumToAssigned(t *testing.T) {
	g := testGraph(t)
	f := func(n uint16, seed uint64) bool {
		limit := int(n)%g.E() + 1
		cfg := Config{K: 5, Seed: seed}
		h, err := NewHDRF(cfg, HDRFDefaultLambda)
		if err != nil {
			return false
		}
		a, err := Run(stream.FromEdges(g.Edges[:limit]), h)
		if err != nil || a.Len() != limit {
			return false
		}
		var total int64
		for p := 0; p < 5; p++ {
			total += h.Cache().Size(p)
		}
		return total == int64(limit)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
