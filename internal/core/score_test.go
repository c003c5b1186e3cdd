package core

import (
	"math"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/vcache"
)

// newTestScorer builds a scorer over k partitions with the given fixed λ
// and clustering toggle, exposing the cache for direct manipulation.
func newTestScorer(k int, lambda float64, clustering bool, totalEdges int64) (*scorer, *vcache.Cache) {
	cache := vcache.New(k, 0)
	parts := make([]int, k)
	for i := range parts {
		parts[i] = i
	}
	cfg := config{
		initialLambda: lambda,
		lambdaMin:     DefaultLambdaMin,
		lambdaMax:     DefaultLambdaMax,
		balanceEps:    DefaultBalanceEps,
		clustering:    clustering,
	}
	sc := newScorer(cache, parts, cfg)
	sc.totalEdges = totalEdges
	return sc, cache
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestScoreEmptyCacheIsPureBalance(t *testing.T) {
	// Nothing assigned: R = 0, CS = 0, and B(p) = (0-0)/(0-0+1) = 0 for
	// every partition, so all scores are exactly 0.
	sc, _ := newTestScorer(4, 1.0, true, 10)
	scores, best, bestPart := sc.scoreEdge(graph.Edge{Src: 0, Dst: 1}, nil)
	for i, s := range scores {
		approx(t, "score", s, 0)
		_ = i
	}
	approx(t, "best", best, 0)
	if bestPart != 0 {
		t.Errorf("bestPart = %d, want 0 (first allowed on tie)", bestPart)
	}
}

func TestScoreBalanceTerm(t *testing.T) {
	// Hand-computed Eq. 3. Sizes: p0=2, p1=0 (k=2). maxsize=2, minsize=0,
	// ε=1 → B(p0) = (2-2)/(2-0+1) = 0; B(p1) = (2-0)/3 = 2/3.
	// λ fixed at 1.5 via direct field control (commit would adapt it).
	sc, cache := newTestScorer(2, 1.5, false, 100)
	cache.Assign(graph.Edge{Src: 10, Dst: 11}, 0)
	cache.Assign(graph.Edge{Src: 12, Dst: 13}, 0)

	// Edge with unseen endpoints: only the balance term contributes.
	scores, best, bestPart := sc.scoreEdge(graph.Edge{Src: 20, Dst: 21}, nil)
	approx(t, "g(e,p0)", scores[0], 0)
	approx(t, "g(e,p1)", scores[1], 1.5*2.0/3.0)
	approx(t, "best", best, 1.0)
	if bestPart != 1 {
		t.Errorf("bestPart = %d, want 1", bestPart)
	}
}

func TestScoreReplicationTerm(t *testing.T) {
	// Hand-computed Eq. 5. One edge (5,6) assigned to p0: both endpoints
	// have partial degree 1, maxDegree=1, Ψ = 1/2 → contribution
	// (2 − 0.5) = 1.5 per endpoint replicated on p.
	// Balance: sizes p0=1, p1=0 → B(p0)=0, B(p1)=(1-0)/(1+1)=0.5.
	sc, cache := newTestScorer(2, 1.0, false, 100)
	cache.Assign(graph.Edge{Src: 5, Dst: 6}, 0)

	// Edge (5,6) again: both endpoints on p0 → R(e,p0) = 3.0.
	scores, best, bestPart := sc.scoreEdge(graph.Edge{Src: 5, Dst: 6}, nil)
	approx(t, "g(e,p0)", scores[0], 3.0)
	approx(t, "g(e,p1)", scores[1], 1.0*0.5)
	approx(t, "best", best, 3.0)
	if bestPart != 0 {
		t.Errorf("bestPart = %d, want 0", bestPart)
	}

	// Edge (5,99): only one endpoint replicated → R(e,p0) = 1.5.
	scores, _, _ = sc.scoreEdge(graph.Edge{Src: 5, Dst: 99}, nil)
	approx(t, "g((5,99),p0)", scores[0], 1.5)
}

func TestScoreDegreeAwareness(t *testing.T) {
	// Two vertices on p0: u with degree 3, w with degree 1 (maxDegree 3).
	// Ψu = 3/6 = 0.5 → (2−Ψu) = 1.5; Ψw = 1/6 → (2−Ψw) ≈ 1.8333.
	// The low-degree vertex pulls harder, so high-degree vertices end up
	// replicated first — the Figure 5 intuition.
	sc, cache := newTestScorer(2, 0, false, 100) // λ=0 kills the balance term
	cache.Assign(graph.Edge{Src: 1, Dst: 2}, 0)
	cache.Assign(graph.Edge{Src: 1, Dst: 3}, 0)
	cache.Assign(graph.Edge{Src: 1, Dst: 4}, 0)

	// u=1 has degree 3; w=2 has degree 1.
	scoresU, _, _ := sc.scoreEdge(graph.Edge{Src: 1, Dst: 50}, nil)
	highDeg := scoresU[0]
	scoresW, _, _ := sc.scoreEdge(graph.Edge{Src: 2, Dst: 50}, nil)
	lowDeg := scoresW[0]
	approx(t, "high-degree pull", highDeg, 2-3.0/6.0)
	approx(t, "low-degree pull", lowDeg, 2-1.0/6.0)
	if lowDeg <= highDeg {
		t.Error("low-degree endpoint must pull harder than high-degree")
	}
}

func TestScoreClusteringTerm(t *testing.T) {
	// The Figure 6 example: u replicated on both partitions, three of its
	// neighbours on p1, one on p2. CS must prefer p1.
	// Construct: neighbours 101,102,103 on p0; neighbour 104 on p1;
	// u (=100) on both.
	sc, cache := newTestScorer(2, 0, true, 100)
	cache.Assign(graph.Edge{Src: 100, Dst: 101}, 0)
	cache.Assign(graph.Edge{Src: 100, Dst: 102}, 0)
	cache.Assign(graph.Edge{Src: 100, Dst: 103}, 0)
	cache.Assign(graph.Edge{Src: 100, Dst: 104}, 1)

	// Score edge (100, 200) with window neighbourhood {101,102,103,104}.
	neighbors := []graph.VertexID{101, 102, 103, 104}
	scores, _, bestPart := sc.scoreEdge(graph.Edge{Src: 100, Dst: 200}, neighbors)

	// R(e,p): u on both partitions; deg(u)=4, maxDegree=4 → Ψu=0.5,
	// contribution 1.5 on both sides. CS(p0)=3/4, CS(p1)=1/4.
	approx(t, "g(e,p0)", scores[0], 1.5+0.75)
	approx(t, "g(e,p1)", scores[1], 1.5+0.25)
	if bestPart != 0 {
		t.Errorf("bestPart = %d, want 0 (stronger local cluster)", bestPart)
	}

	// With clustering disabled the two partitions tie at 1.5.
	sc2, cache2 := newTestScorer(2, 0, false, 100)
	cache2.Assign(graph.Edge{Src: 100, Dst: 101}, 0)
	cache2.Assign(graph.Edge{Src: 100, Dst: 104}, 1)
	scores2, _, _ := sc2.scoreEdge(graph.Edge{Src: 100, Dst: 200}, neighbors)
	approx(t, "no-CS tie", scores2[0], scores2[1])
}

func TestScoreSelfLoopCountsOnce(t *testing.T) {
	sc, cache := newTestScorer(2, 0, false, 100)
	cache.Assign(graph.Edge{Src: 7, Dst: 7}, 0)
	// Self-loop (7,7): Src term only — deg(7)=1, max=1, Ψ=0.5 → 1.5, not 3.
	scores, _, _ := sc.scoreEdge(graph.Edge{Src: 7, Dst: 7}, nil)
	approx(t, "self-loop score", scores[0], 1.5)
}

func TestLambdaAdaptation(t *testing.T) {
	// Eq. 4: λ += ι − tolerance(α), clamped to [0.4, 5].
	sc, _ := newTestScorer(2, 1.0, false, 4)

	// First assignment: sizes become (1,0) → ι = 1. α = 1/4 → tolerance
	// 0.75. λ = 1.0 + (1 − 0.75) = 1.25.
	sc.commit(graph.Edge{Src: 0, Dst: 1}, 0)
	approx(t, "λ after 1st", sc.lambda, 1.25)

	// Second assignment to p1: sizes (1,1) → ι = 0. α = 2/4 → tolerance
	// 0.5. λ = 1.25 + (0 − 0.5) = 0.75.
	sc.commit(graph.Edge{Src: 2, Dst: 3}, 1)
	approx(t, "λ after 2nd", sc.lambda, 0.75)
}

func TestLambdaClamping(t *testing.T) {
	sc, _ := newTestScorer(2, 0.4, false, 1000)
	// With m=1000, early assignments have tolerance ≈ 1 and small ι, so λ
	// keeps decreasing: it must stop at the 0.4 floor.
	for i := 0; i < 20; i += 2 {
		sc.commit(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}, i%2)
	}
	if sc.lambda < DefaultLambdaMin-1e-12 {
		t.Errorf("λ = %v fell below the %v floor", sc.lambda, DefaultLambdaMin)
	}

	// Extreme imbalance with α ≈ 1 drives λ up; it must stop at 5.
	sc2, _ := newTestScorer(2, 5.0, false, 1)
	for i := 0; i < 20; i += 2 {
		sc2.commit(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}, 0)
	}
	if sc2.lambda > DefaultLambdaMax+1e-12 {
		t.Errorf("λ = %v exceeded the %v cap", sc2.lambda, DefaultLambdaMax)
	}
}

func TestCommitReportsNewReplicas(t *testing.T) {
	sc, _ := newTestScorer(2, 1, false, 10)
	newSrc, newDst := sc.commit(graph.Edge{Src: 1, Dst: 2}, 0)
	if !newSrc || !newDst {
		t.Error("first commit must create replicas for both endpoints")
	}
	newSrc, newDst = sc.commit(graph.Edge{Src: 1, Dst: 2}, 0)
	if newSrc || newDst {
		t.Error("repeat commit created replicas")
	}
	newSrc, newDst = sc.commit(graph.Edge{Src: 1, Dst: 3}, 1)
	if !newSrc || !newDst {
		t.Error("commit to a new partition must create replicas")
	}
}

func TestScoreOpsCounted(t *testing.T) {
	sc, _ := newTestScorer(2, 1, false, 10)
	for i := 0; i < 5; i++ {
		sc.scoreEdge(graph.Edge{Src: 0, Dst: 1}, nil)
	}
	if sc.scratch.scoreOps != 5 {
		t.Errorf("scoreOps = %d, want 5", sc.scratch.scoreOps)
	}
}
