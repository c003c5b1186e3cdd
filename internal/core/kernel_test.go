package core

import (
	"math/rand"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// populatedScorer returns a scorer over k partitions with a warm cache:
// n random assignments so replica bitmaps have plenty of set bits for
// the word-scan kernel to walk.
func populatedScorer(tb testing.TB, k, n int) *scorer {
	tb.Helper()
	sc, cache := newTestScorer(k, 1.0, true, int64(n))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		e := graph.Edge{
			Src: graph.VertexID(rng.Intn(n / 4)),
			Dst: graph.VertexID(rng.Intn(n / 4)),
		}
		cache.Assign(e, rng.Intn(k))
	}
	return sc
}

// kernelInputs returns the kernel inputs of edge (1,2) with neighbourhood
// {3, 17, 99, 256, 700} on sc's cache, derived by probe.
func kernelInputs(sc *scorer) (src, dst endpoint, n int, counts []int32) {
	n, counts = oracleCounts(sc, []graph.VertexID{3, 17, 99, 256, 700})
	return probeEndpoint(sc.cache, 1), probeEndpoint(sc.cache, 2), n, counts
}

// TestScoreEdgeKernelZeroAlloc pins the //adwise:zeroalloc stamp on the
// replica-scan kernel: a scoring evaluation — balance copy, word-scan
// replica scatter, clustering fold, argmax — allocates nothing. The
// adwise-lint hotpath rule stops the source patterns; this proves
// today's compiler output.
func TestScoreEdgeKernelZeroAlloc(t *testing.T) {
	for _, k := range []int{8, 96} { // one-word and multi-word bitmaps
		sc := populatedScorer(t, k, 4_000)
		view := sc.view()
		src, dst, n, counts := kernelInputs(sc)
		allocs := testing.AllocsPerRun(200, func() {
			view.scoreEdge(src, dst, n, counts, sc.prime)
		})
		if allocs != 0 {
			t.Errorf("k=%d: scoreEdge kernel allocated %.1f per run, want 0", k, allocs)
		}
	}
}

// TestScoreReadPathsZeroAlloc pins the //adwise:zeroalloc stamps on the
// window's read paths: scoring a live entry and a fresh edge through the
// walk producer and through the maintained counts allocates nothing once
// the scratch's stamps cover the slot table.
func TestScoreReadPathsZeroAlloc(t *testing.T) {
	for _, k := range []int{8, 96} {
		sc := populatedScorer(t, k, 4_000)
		w := newWindow(sc, newScorePool(nil, 1, len(sc.parts)), 0.1, 64, false)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			w.add(graph.Edge{Src: graph.VertexID(rng.Intn(40)), Dst: graph.VertexID(rng.Intn(1000))})
		}
		ent := w.secondary[0]
		fresh := graph.Edge{Src: ent.edge.Src, Dst: 5000}
		view := sc.view()
		for _, engaged := range []bool{false, true} {
			if engaged {
				w.engage()
			}
			allocs := testing.AllocsPerRun(200, func() {
				w.scoreEntry(&view, ent, sc.prime)
				w.scoreFresh(&view, fresh, sc.prime)
			})
			if allocs != 0 {
				t.Errorf("k=%d engaged=%v: window scoring allocated %.1f per run, want 0", k, engaged, allocs)
			}
		}
	}
}

// TestScoreKernelMatchesNeighborListKernel checks the production kernel
// against the neighbour-list kernel it replaced: on random edges and
// neighbourhoods over a warm cache, with every or every third partition
// allowed, the scores, the best score and its partition must be equal
// bit for bit.
func TestScoreKernelMatchesNeighborListKernel(t *testing.T) {
	for _, k := range []int{1, 8, 96} {
		for _, third := range []bool{false, true} {
			sc := populatedScorer(t, k, 4_000)
			if third {
				var parts []int
				for p := 0; p < k; p += 3 {
					parts = append(parts, p)
				}
				sc = newScorer(sc.cache, parts, config{initialLambda: 1, lambdaMin: DefaultLambdaMin, lambdaMax: DefaultLambdaMax, balanceEps: DefaultBalanceEps, clustering: true})
			}
			view := sc.view()
			rng := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 500; i++ {
				e := graph.Edge{Src: graph.VertexID(rng.Intn(1200)), Dst: graph.VertexID(rng.Intn(1200))}
				if i%10 == 0 {
					e.Dst = e.Src
				}
				nbs := make([]graph.VertexID, rng.Intn(40))
				for j := range nbs {
					nbs[j] = graph.VertexID(rng.Intn(1200))
				}
				wantScores, wantBest, wantPart := scoreEdgeNeighbors(&view, sc.cache, e, nbs)
				gotScores, gotBest, gotPart := sc.scoreEdge(e, nbs)
				if gotBest != wantBest || gotPart != wantPart {
					t.Fatalf("k=%d third=%v edge %v: kernel best %v on p%d, neighbour-list kernel %v on p%d", k, third, e, gotBest, gotPart, wantBest, wantPart)
				}
				for p := range wantScores {
					if gotScores[p] != wantScores[p] {
						t.Fatalf("k=%d third=%v edge %v: score[%d] = %v, neighbour-list kernel %v", k, third, e, p, gotScores[p], wantScores[p])
					}
				}
			}
		}
	}
}

// BenchmarkScoreEdgeKernel measures one scoring evaluation on a warm
// cache — the per-edge cost every refill batch and rescore pass pays once
// its inputs are produced.
func BenchmarkScoreEdgeKernel(b *testing.B) {
	for _, bc := range []struct {
		name       string
		k          int
		clustering bool
	}{
		{"k=8/cs=on", 8, true},
		{"k=8/cs=off", 8, false},
		{"k=96/cs=on", 96, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc, cache := newTestScorer(bc.k, 1.0, bc.clustering, 40_000)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 40_000; i++ {
				e := graph.Edge{
					Src: graph.VertexID(rng.Intn(10_000)),
					Dst: graph.VertexID(rng.Intn(10_000)),
				}
				cache.Assign(e, rng.Intn(bc.k))
			}
			view := sc.view()
			src, dst, n, counts := kernelInputs(sc)
			if !bc.clustering {
				n = 0
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view.scoreEdge(src, dst, n, counts, sc.prime)
			}
		})
	}
}
