package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
)

// drawStream wraps a stream to control what Run can learn from it:
// unless sized, Remaining reports -1, the contract of a stream that
// cannot report its length; a non-nil clk advances 1 ms per edge drawn,
// so an adaptive run's time line depends only on the edges it consumed.
type drawStream struct {
	inner stream.Stream
	sized bool
	clk   *clock.Fake
}

func (d *drawStream) Next() (graph.Edge, bool) {
	e, ok := d.inner.Next()
	if ok && d.clk != nil {
		d.clk.Advance(time.Millisecond)
	}
	return e, ok
}

func (d *drawStream) Remaining() int64 {
	if !d.sized {
		return -1
	}
	return d.inner.Remaining()
}

// perEdge hands d to Run behind a one-edge buffer, which Run keeps as
// its own, so every edge the window draws is exactly one Next on d.
func (d *drawStream) perEdge() stream.Stream { return stream.NewBuffered(d, 1) }

// equivalenceGraph is the 100k-edge skewed RMAT stream whose prefixes the
// refill and C2 equivalence tests run.
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

// checkRefillToEnd runs a fixed window of the given size over edges,
// with WithTotalEdgesHint, once for each entry of sized (whether the
// stream reports its length); every run must assign every edge and match
// the sized run edge for edge.
func checkRefillToEnd(t *testing.T, edges []graph.Edge, window int, sized []bool) {
	t.Helper()
	run := func(sized bool) *metrics.Assignment {
		t.Helper()
		ad, err := New(8,
			WithInitialWindow(window),
			WithFixedWindow(),
			WithMaxCandidates(256),
			WithTotalEdgesHint(int64(len(edges))),
		)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(&drawStream{inner: stream.FromEdges(edges), sized: sized})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ref := run(true)
	if ref.Len() != len(edges) {
		t.Fatalf("w=%d: sized run assigned %d of %d edges", window, ref.Len(), len(edges))
	}
	for _, s := range sized {
		requireSameAssignments(t, fmt.Sprintf("w=%d sized=%v", window, s), ref, run(s))
	}
}

// TestBatchedRefillDeficitExceedsStream pins the refill loop when the
// window's deficit is larger than the whole stream: the first refill
// drains the stream, and the run must still assign every edge, sized or
// not. The name dates from the batched refill path; the per-edge loop
// that replaced it meets the same boundary.
func TestBatchedRefillDeficitExceedsStream(t *testing.T) {
	edges := equivalenceGraph(t)[:3_000]
	checkRefillToEnd(t, edges, 4096, []bool{true, false}) // 4096 > 3000
}

// TestRefillUnknownRemaining pins the refill loop over a stream that
// cannot report its length (Remaining is -1), given the length through
// WithTotalEdgesHint: a window smaller than the stream refills many
// times and must stop only at the stream's end. The sized run is the
// control.
func TestRefillUnknownRemaining(t *testing.T) {
	edges := equivalenceGraph(t)[:10_000]
	checkRefillToEnd(t, edges, 512, []bool{true, false})
}

// TestC2UnsizedStreamMatchesSized pins condition (C2)'s edge count |E′|
// for a stream that cannot report its length: given the length through
// WithTotalEdgesHint, the adaptive window must follow exactly the
// trajectory it follows over the same stream reporting its length. The
// clock advances 1 ms per edge drawn, so 20k edges take about 20 s and
// the latency preferences swept here sit where C2 decides the resizes.
func TestC2UnsizedStreamMatchesSized(t *testing.T) {
	const n = 20_000
	edges := equivalenceGraph(t)[:n]
	trace := func(l time.Duration, sized bool) []WindowChange {
		t.Helper()
		clk := clock.NewFake(time.Unix(0, 0))
		ad, err := New(8,
			WithClock(clk),
			WithLatencyPreference(l),
			WithMaxWindow(1024),
			WithTotalEdgesHint(n),
		)
		if err != nil {
			t.Fatal(err)
		}
		d := &drawStream{inner: stream.FromEdges(edges), sized: sized, clk: clk}
		if _, err := ad.Run(d.perEdge()); err != nil {
			t.Fatal(err)
		}
		return ad.Stats().WindowTrace
	}
	for l := 201; l <= 230; l++ {
		pref := time.Duration(l) * 100 * time.Millisecond
		want := trace(pref, true)
		if len(want) == 0 {
			t.Fatalf("L=%v: the sized run never resized its window", pref)
		}
		got := trace(pref, false)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Errorf("L=%v: unsized stream's window trace (%d resizes) diverged from the sized one (%d) at resize %d",
				pref, len(got), len(want), i)
		}
	}
}
