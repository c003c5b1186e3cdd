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

// largeEdges is the out-of-cache stream: about 1.41M distinct vertices,
// whose table (2M slots, 32 MiB at benchK) is far past the core's L2, so
// a probe pays the memory latency the slot layout decides. The 64k-edge
// stream's table fits in L2 and cannot show it.
const largeEdges = 3 << 20

// minLargeVertices is the fewest distinct vertices the out-of-cache cases
// accept.
const minLargeVertices = 1 << 20

// assignAll builds a cache holding edges assigned round-robin.
func assignAll(edges []graph.Edge) *Cache {
	c := New(benchK, 0)
	for j, e := range edges {
		c.Assign(e, j%benchK)
	}
	return c
}

func BenchmarkAssign(b *testing.B) {
	edges := benchEdges(1 << 16)
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			assignAll(edges)
		}
	})
	b.Run("open-3M", func(b *testing.B) {
		large := benchEdges(largeEdges)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c := assignAll(large); c.Vertices() < minLargeVertices {
				b.Fatalf("%d vertices, want at least %d", c.Vertices(), minLargeVertices)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(large)), "ns/edge")
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

// benchSink keeps the compiler from dropping the lookups it sums.
var benchSink int

// lookupSrcs looks up the sources of b.N edges, cycling through edges.
func lookupSrcs(b *testing.B, c *Cache, edges []graph.Edge) {
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		d, words := c.LookupWords(e.Src)
		sink += d
		for _, w := range words {
			sink += bits.OnesCount64(w)
		}
	}
	benchSink = sink
}

func BenchmarkLookup(b *testing.B) {
	edges := benchEdges(1 << 16)
	open := assignAll(edges)
	mapc := newMapCache(benchK)
	for j, e := range edges {
		mapc.Assign(e, j%benchK)
	}
	b.Run("open", func(b *testing.B) {
		lookupSrcs(b, open, edges)
	})
	b.Run("open-3M", func(b *testing.B) {
		large := benchEdges(largeEdges)
		c := assignAll(large)
		if c.Vertices() < minLargeVertices {
			b.Fatalf("%d vertices, want at least %d", c.Vertices(), minLargeVertices)
		}
		b.ResetTimer()
		lookupSrcs(b, c, large)
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
