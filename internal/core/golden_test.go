package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
)

// updateGolden rewrites the committed digest file from the current code.
// Use it only for an intended behaviour change, and say so in the change
// description: a refactor must leave the file byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite "+goldenFile+" from the current code")

const goldenFile = "testdata/golden_digests.txt"

// goldenCell is one configuration of the golden assignment matrix.
type goldenCell struct {
	graph      string // "zipf" or "rmat"
	k          int
	eager      bool
	clustering bool
	// budget selects the bounded vertex state at its floored minimum
	// table (WithVertexBudget(1)); false keeps the unbounded cache.
	budget bool
	// window is the fixed window size; 0 means the matrix default of 64.
	window int
	// third restricts the allowed partitions to every third one
	// (0, 3, 6, …); false allows all k.
	third bool
}

func (c goldenCell) name() string {
	trav, cs, budget := "lazy", "cs=on", "budget=0"
	if c.eager {
		trav = "eager"
	}
	if !c.clustering {
		cs = "cs=off"
	}
	if c.budget {
		budget = "budget=floor"
	}
	head := fmt.Sprintf("%s/k=%d", c.graph, c.k)
	if c.window != 0 {
		parts := "parts=all"
		if c.third {
			parts = "parts=third"
		}
		head += fmt.Sprintf("/w=%d/%s", c.window, parts)
	}
	return fmt.Sprintf("%s/%s/%s/%s", head, trav, cs, budget)
}

// windowSize returns the cell's fixed window size.
func (c goldenCell) windowSize() int {
	if c.window == 0 {
		return 64
	}
	return c.window
}

// allowed returns the cell's allowed partitions, nil for all k.
func (c goldenCell) allowed() []int {
	if !c.third {
		return nil
	}
	var parts []int
	for p := 0; p < c.k; p += 3 {
		parts = append(parts, p)
	}
	return parts
}

// goldenMatrix is {Zipf, RMAT} × k ∈ {1, 32, 96} × lazy/eager ×
// clustering on/off × budget {0, floor} at window 64: 48 cells. k=96
// spans two replica-bitmap words; the floored budget evicts on the RMAT
// stream. Eight cells at window 1024, lazy with clustering on, follow;
// their large window neighbourhoods drive the clustering score through
// the maintained neighbour counts. Four run the hub-heavy Zipf stream
// × k ∈ {32, 96} × allowed {all, every third} at budget 0: its 616
// vertices fit the floored table, so a floored budget would evict
// nothing there. Four run the RMAT stream × k ∈ {4, 8} × allowed {all,
// every third} at the floored budget, which evicts while the counts are
// engaged.
func goldenMatrix() []goldenCell {
	var cells []goldenCell
	for _, g := range []string{"zipf", "rmat"} {
		for _, k := range []int{1, 32, 96} {
			for _, eager := range []bool{false, true} {
				for _, clustering := range []bool{true, false} {
					for _, budget := range []bool{false, true} {
						cells = append(cells, goldenCell{graph: g, k: k, eager: eager, clustering: clustering, budget: budget})
					}
				}
			}
		}
	}
	for _, k := range []int{32, 96} {
		for _, third := range []bool{false, true} {
			cells = append(cells, goldenCell{graph: "zipf", k: k, clustering: true, window: 1024, third: third})
		}
	}
	for _, k := range []int{4, 8} {
		for _, third := range []bool{false, true} {
			cells = append(cells, goldenCell{graph: "rmat", k: k, clustering: true, budget: true, window: 1024, third: third})
		}
	}
	return cells
}

// goldenEdges returns the 2k-edge input stream of a graph model.
func goldenEdges(t *testing.T, model string) []graph.Edge {
	t.Helper()
	var g *graph.Graph
	var err error
	switch model {
	case "zipf":
		g, err = gen.Zipf(8000, 2000, 1.3, 1)
	case "rmat":
		g, err = gen.RMAT(13, 2000, 0.57, 0.19, 0.19, 1)
	default:
		t.Fatalf("unknown golden graph model %q", model)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g.Edges
}

// assignmentDigest is the SHA-256 of the (src, dst, part) sequence, each
// field a little-endian uint32.
func assignmentDigest(a *metrics.Assignment) string {
	h := sha256.New()
	buf := make([]byte, 0, 12)
	for i, e := range a.Edges {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(e.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Parts[i]))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runGoldenCell partitions the cell's stream with the cell's fixed window
// and a fake clock, returning the cell's digest line and the run stats.
func runGoldenCell(t *testing.T, c goldenCell, edges []graph.Edge) (string, RunStats) {
	t.Helper()
	opts := []Option{
		WithInitialWindow(c.windowSize()),
		WithFixedWindow(),
		WithAllowedPartitions(c.allowed()),
		WithClock(clock.NewFake(time.Unix(0, 0))),
		WithClusteringScore(c.clustering),
	}
	if c.eager {
		opts = append(opts, WithEagerTraversal())
	}
	if c.budget {
		opts = append(opts, WithVertexBudget(1))
	}
	ad, err := New(c.k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(edges) {
		t.Fatalf("%s: assigned %d of %d edges", c.name(), a.Len(), len(edges))
	}
	sum := metrics.Summarize(a)
	st := ad.Stats()
	line := fmt.Sprintf("%s %s rf=%s maxload=%d scoreops=%d %s", c.name(), assignmentDigest(a),
		strconv.FormatFloat(sum.ReplicationDegree, 'g', -1, 64), sum.MaxSize, st.ScoreComputations, ledgerColumns(st))
	return line, st
}

// ledgerColumns renders the run's work ledger as the golden line's tail:
// the score ops of each phase, the outcome of the lazy selections, the
// clustering evaluations of each producer, the count engagements and the
// lazy-traversal set moves. A change in the work a run does then fails
// the cell exactly, even when the assignment is unchanged.
func ledgerColumns(st RunStats) string {
	p := st.PhaseScoreOps
	return fmt.Sprintf("refill=%d leader=%d rescore=%d rescan=%d reassess=%d popfresh=%d "+
		"selections=%d firsttry=%d retries=%d fallbacks=%d walkevals=%d countevals=%d engagements=%d "+
		"promotions=%d demotions=%d reassessments=%d rescans=%d",
		p.Refill, p.Leader, p.Rescore, p.Rescan, p.Reassess, p.PopFresh,
		st.LazySelections, st.LazyFirstTryHits, st.LazyRetries, st.LazyFallbacks,
		st.ClusterWalkEvals, st.ClusterCountEvals, st.CountEngagements,
		st.Promotions, st.Demotions, st.Reassessments, st.SecondaryRescans)
}

// checkLedger verifies the run's work ledger adds up: the score ops of
// the phases sum to ScoreComputations, the lazy-leader ops are one per
// selection plus one per retry, and the clustering evaluations of the two
// producers sum to the score ops with the clustering score on and are
// zero with it off.
func checkLedger(t *testing.T, name string, st RunStats, clustering bool) {
	t.Helper()
	if got := st.PhaseScoreOps.Sum(); got != st.ScoreComputations {
		t.Errorf("%s: phase score ops %+v sum to %d, ScoreComputations %d", name, st.PhaseScoreOps, got, st.ScoreComputations)
	}
	if got, want := st.PhaseScoreOps.Leader, st.LazySelections+st.LazyRetries; got != want {
		t.Errorf("%s: %d lazy-leader score ops, want selections %d + retries %d", name, got, st.LazySelections, st.LazyRetries)
	}
	if st.LazyFirstTryHits+st.LazyFallbacks > st.LazySelections {
		t.Errorf("%s: %d first-try hits and %d fallbacks exceed %d selections", name, st.LazyFirstTryHits, st.LazyFallbacks, st.LazySelections)
	}
	want := st.ScoreComputations
	if !clustering {
		want = 0
	}
	if got := st.ClusterWalkEvals + st.ClusterCountEvals; got != want {
		t.Errorf("%s: walk %d + counts %d clustering evaluations, want %d", name, st.ClusterWalkEvals, st.ClusterCountEvals, want)
	}
}

// TestGoldenAssignmentDigests is the cross-build behaviour anchor: every
// cell of the matrix must reproduce the committed digest of its assignment
// sequence, its replication factor, its largest partition, its score op
// count and its work ledger (ledgerColumns) exactly. The in-build
// equivalence tests compare two live paths of one build; this file pins
// what both paths produced when it was recorded, so a change that moves
// every path at once still shows. Run with -update to re-record after an
// intended behaviour change.
func TestGoldenAssignmentDigests(t *testing.T) {
	edges := map[string][]graph.Edge{
		"zipf": goldenEdges(t, "zipf"),
		"rmat": goldenEdges(t, "rmat"),
	}
	cells := goldenMatrix()
	got := make([]string, len(cells))
	for i, c := range cells {
		line, st := runGoldenCell(t, c, edges[c.graph])
		if c.graph == "rmat" && c.budget && st.EvictedVertices == 0 {
			t.Errorf("%s: the floored budget evicted nothing; the cell no longer exercises eviction", c.name())
		}
		if c.window != 0 && st.CountEngagements == 0 {
			t.Errorf("%s: the maintained neighbour counts never engaged", c.name())
		}
		checkLedger(t, c.name(), st, c.clustering)
		got[i] = line
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", goldenFile, len(got))
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden digests (run with -update to record them): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d cells, the matrix has %d", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d diverged from %s:\n got  %s\n want %s", i, goldenFile, got[i], want[i])
		}
	}
}
