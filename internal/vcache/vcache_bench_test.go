package vcache

import (
	"math/bits"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/hashx"
)

// benchEdges synthesizes a power-law-ish edge stream: a few hub vertices
// plus a long tail, the degree shape the cache sees in practice.
func benchEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	x := uint64(0x12345)
	for i := range edges {
		x = hashx.SplitMix64(x)
		src := graph.VertexID(x % uint64(n/8+1))
		x = hashx.SplitMix64(x)
		dst := graph.VertexID(x % uint64(n/2+1))
		edges[i] = graph.Edge{Src: src, Dst: dst}
	}
	return edges
}

const benchK = 32

func BenchmarkAssign(b *testing.B) {
	edges := benchEdges(1 << 16)
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := New(benchK, 0)
			for j, e := range edges {
				c.Assign(e, j%benchK)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := newMapCache(benchK)
			for j, e := range edges {
				c.Assign(e, j%benchK)
			}
		}
	})
}

func BenchmarkLookup(b *testing.B) {
	edges := benchEdges(1 << 16)
	open := New(benchK, 0)
	mapc := newMapCache(benchK)
	for j, e := range edges {
		open.Assign(e, j%benchK)
		mapc.Assign(e, j%benchK)
	}
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			d, words := open.LookupWords(e.Src)
			sink += d
			for _, w := range words {
				sink += bits.OnesCount64(w)
			}
		}
		_ = sink
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			d, r := mapc.Lookup(e.Src)
			sink += d + r.Count()
		}
		_ = sink
	})
}

// BenchmarkAssignAllocs documents the pointer-free claim: steady-state
// Assign must not allocate per edge (growth amortizes to ~0 over the run).
func BenchmarkAssignSteadyState(b *testing.B) {
	edges := benchEdges(1 << 14)
	c := New(benchK, 0)
	for j, e := range edges {
		c.Assign(e, j%benchK)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Assign(edges[i%len(edges)], i%benchK)
	}
}
