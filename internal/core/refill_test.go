package core

import (
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
)

// drawStream wraps a stream whose clock advances 1 ms per edge drawn, so
// an adaptive run's time line depends only on the edges it consumed.
type drawStream struct {
	inner stream.Stream
	clk   *clock.Fake
}

func (d *drawStream) NextBatch(dst []graph.Edge) int {
	n := d.inner.NextBatch(dst)
	d.clk.Advance(time.Duration(n) * time.Millisecond)
	return n
}

func (d *drawStream) Remaining() int64 { return d.inner.Remaining() }

// perEdge hands d to Run behind a one-edge buffer, which Run keeps as
// its own, so every edge the window draws is exactly one NextBatch on d.
func (d *drawStream) perEdge() stream.Stream { return stream.NewBuffered(d, 1) }

// equivalenceGraph is the 100k-edge skewed RMAT stream whose prefix the
// refill test runs.
func equivalenceGraph(t testing.TB) []graph.Edge {
	t.Helper()
	g, err := gen.RMAT(17, 100_000, 0.57, 0.19, 0.19, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g.Edges
}

// requireSameAssignments fails unless a and b assigned the same edges to
// the same partitions in the same order.
func requireSameAssignments(t *testing.T, label string, a, b *metrics.Assignment) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: assigned %d edges, reference %d", label, b.Len(), a.Len())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.Parts[i] != b.Parts[i] {
			t.Fatalf("%s: diverged at assignment %d: reference %v→%d, got %v→%d",
				label, i, a.Edges[i], a.Parts[i], b.Edges[i], b.Parts[i])
		}
	}
}

// TestBatchedRefillDeficitExceedsStream pins the refill loop when the
// window's deficit is larger than the whole stream: the first refill
// drains the stream, and the run must still assign every edge. The name
// dates from the batched refill path; the per-edge loop that replaced it
// meets the same boundary.
func TestBatchedRefillDeficitExceedsStream(t *testing.T) {
	edges := equivalenceGraph(t)[:3_000]
	ad, err := New(8, WithInitialWindow(4096), WithFixedWindow(), WithMaxCandidates(256)) // 4096 > 3000
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(edges) {
		t.Fatalf("assigned %d of %d edges", a.Len(), len(edges))
	}
}
