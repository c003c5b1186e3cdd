package stream

import (
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metric"
)

func meteredFixture(n int) ([]graph.Edge, *metric.Registry) {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	return edges, metric.New(metric.WithCounterStripes(1))
}

func counterOf(t *testing.T, reg *metric.Registry, name string) int64 {
	t.Helper()
	p, ok := reg.Snapshot().Counter(name)
	if !ok {
		t.Fatalf("counter %q not in snapshot", name)
	}
	return p.Value
}

func TestMeteredCountsBatches(t *testing.T) {
	edges, reg := meteredFixture(100)
	doneFires := 0
	m := NewMetered(FromEdges(edges), reg.Counter(MetricEdgesRead), func() { doneFires++ })

	var buf [32]graph.Edge
	total := 0
	for {
		n := m.NextBatch(buf[:])
		if n == 0 {
			break
		}
		total += n
	}
	if total != 100 {
		t.Fatalf("drained %d edges, want 100", total)
	}
	if got := counterOf(t, reg, MetricEdgesRead); got != 100 {
		t.Errorf("%s = %d, want 100", MetricEdgesRead, got)
	}
	if doneFires != 1 {
		t.Errorf("done hook fired %d times, want exactly 1", doneFires)
	}
	// Further exhausted reads never re-fire the hook.
	m.NextBatch(buf[:])
	if n := m.NextBatch(buf[:]); n != 0 || doneFires != 1 {
		t.Errorf("post-exhaustion read: n=%d doneFires=%d, want 0/1", n, doneFires)
	}
}

func TestMeteredCountsSingleDraws(t *testing.T) {
	edges, reg := meteredFixture(5)
	m := NewMetered(FromEdges(edges), reg.Counter(MetricEdgesRead), nil)
	var one [1]graph.Edge
	for m.NextBatch(one[:]) > 0 {
	}
	if got := counterOf(t, reg, MetricEdgesRead); got != 5 {
		t.Errorf("%s = %d, want 5", MetricEdgesRead, got)
	}
	if m.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", m.Remaining())
	}
}

func TestMeteredForwardsErr(t *testing.T) {
	edges, _ := meteredFixture(3)
	m := NewMetered(FromEdges(edges), nil, nil)
	if err := Err(m); err != nil {
		t.Errorf("clean stream Err = %v, want nil", err)
	}
	// nil counter and nil hook: draining must not panic.
	if _, err := Collect(m); err != nil {
		t.Fatal(err)
	}
}
