package core

import (
	"testing"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/stream"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.Community(60, 12, 0.9, 2000, 11)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkPopBest measures the window's assignment loop: fill a fixed
// window, then repeatedly pop the best-scoring edge — the inner loop of
// Algorithm 1 whose cost is dominated by vertex-cache lookups.
func BenchmarkPopBest(b *testing.B) {
	for _, w := range []int{64, 256} {
		b.Run(map[int]string{64: "w=64", 256: "w=256"}[w], func(b *testing.B) {
			g := benchGraph(b)
			b.ReportAllocs()
			b.ResetTimer()
			pops := 0
			for pops < b.N {
				b.StopTimer()
				ad, err := New(16, WithInitialWindow(w), WithFixedWindow())
				if err != nil {
					b.Fatal(err)
				}
				s := stream.FromEdges(g.Edges)
				// Pre-fill the window outside the timed region.
				for ad.win.len() < w {
					e, ok := s.Next()
					if !ok {
						break
					}
					ad.win.add(e)
				}
				b.StartTimer()
				// One op = pop best, commit, refill one edge — the steady
				// state of Algorithm 1's assignment loop.
				for ad.win.len() > 0 && pops < b.N {
					e, p, _, ok := ad.win.popBest()
					if !ok {
						break
					}
					ad.win.commit(e, p)
					if e2, ok := s.Next(); ok {
						ad.win.add(e2)
					}
					pops++
				}
			}
		})
	}
}

// BenchmarkAdwiseRun measures a full fixed-window pass end to end: window
// refill (batched stream draw), scoring, cache updates. The community case
// has short incident lists. The zipf case is hub-heavy (Zipf s=1.3, 2.5k
// vertices, 10k edges, k=32, window 1024, one shard): window
// neighbourhoods hold about a hundred vertices, so the maintained
// neighbour counts serve the clustering score. The rmat-w64 case (RMAT
// scale 14, 40k shuffled edges, k=8, window 64, one shard) has
// neighbourhoods of about zero, so the walk serves throughout.
func BenchmarkAdwiseRun(b *testing.B) {
	zipf, err := gen.Zipf(2500, 10_000, 1.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	rmat, err := gen.RMAT(14, 40_000, 0.57, 0.19, 0.19, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		edges []graph.Edge
		k     int
		opts  []Option
	}{
		{"community", benchGraph(b).Edges, 16, []Option{WithInitialWindow(128), WithFixedWindow()}},
		{"zipf", zipf.Edges, 32, []Option{WithInitialWindow(1024), WithFixedWindow(), WithScoreWorkers(1)}},
		{"rmat-w64", stream.Shuffled(rmat.Edges, 1), 8, []Option{WithInitialWindow(64), WithFixedWindow(), WithScoreWorkers(1)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ad, err := New(bc.k, bc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ad.Run(stream.FromEdges(bc.edges)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
