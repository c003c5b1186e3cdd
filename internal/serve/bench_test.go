package serve

import (
	"net/http"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// benchIndex builds a registry-partitioned index once per benchmark run.
func benchIndex(b *testing.B) (*Index, []graph.Edge) {
	b.Helper()
	a := testAssignment(b, "hdrf", 32)
	ix, err := Build(a)
	if err != nil {
		b.Fatal(err)
	}
	return ix, a.Edges
}

// BenchmarkLookupPartition measures the single-edge read path. The
// acceptance bar is zero allocations per lookup at steady state.
func BenchmarkLookupPartition(b *testing.B) {
	ix, edges := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		p, _ := ix.Partition(e.Src, e.Dst)
		sink += p
	}
	_ = sink
}

// BenchmarkLookupReplicas measures the vertex replica-set read path.
func BenchmarkLookupReplicas(b *testing.B) {
	ix, edges := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += ix.Replicas(edges[i%len(edges)].Src).Count()
	}
	_ = sink
}

// BenchmarkLookupPartitionBatch measures the amortised batch path.
func BenchmarkLookupPartitionBatch(b *testing.B) {
	ix, edges := benchIndex(b)
	if len(edges) > 1024 {
		edges = edges[:1024]
	}
	dst := make([]int32, 0, len(edges))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.PartitionBatch(edges, dst)
	}
	b.SetBytes(int64(len(edges)))
}

// BenchmarkLookupBatchHandler measures one 256-edge POST /v1/edges
// through the uninstrumented handler, from body bytes to response bytes:
// the wire codec plus the index work, without a network.
func BenchmarkLookupBatchHandler(b *testing.B) {
	ix, edges := benchIndex(b)
	edges = edges[:256]
	w, serveOnce := batchReplay(NewHandler(NewStore(ix)), batchJSON(edges))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce()
	}
	b.SetBytes(int64(len(edges)))
	if w.status != http.StatusOK {
		b.Fatalf("status = %d, want 200", w.status)
	}
}

// BenchmarkLookupParallel drives the single-edge path from all cores
// against one immutable index — the serving concurrency model.
func BenchmarkLookupParallel(b *testing.B) {
	ix, edges := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		var sink int32
		for pb.Next() {
			e := edges[i%len(edges)]
			p, _ := ix.Partition(e.Src, e.Dst)
			sink += p
			i++
		}
		_ = sink
	})
}

// BenchmarkBuild measures index construction (not a lookup; excluded from
// the CI Lookup smoke).
func BenchmarkBuild(b *testing.B) {
	a := testAssignment(b, "hdrf", 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(a); err != nil {
			b.Fatal(err)
		}
	}
}
