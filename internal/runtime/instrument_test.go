package runtime

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metric"
	"github.com/adwise-go/adwise/internal/stream"
)

func regCounter(t *testing.T, reg *metric.Registry, name string) int64 {
	t.Helper()
	p, ok := reg.Snapshot().Counter(name)
	if !ok {
		t.Fatalf("counter %q not in snapshot", name)
	}
	return p.Value
}

// TestSpotlightFilePublishesStreamMetrics runs the segmented file loader
// with a registry attached and checks the ingest metrics: every edge read,
// every segment completed, and the full planned byte length accounted.
func TestSpotlightFilePublishesStreamMetrics(t *testing.T) {
	const n = 1 << 12
	path := filepath.Join(t.TempDir(), "metered.txt")
	writeBigEdgeFile(t, path, n, 1<<10)

	reg := metric.New()
	cfg := SpotlightConfig{K: 8, Z: 4, Spread: 2}
	spec := Spec{K: 8, Seed: 3, Metrics: reg}
	asn, err := runFile("hdrf", path, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if asn.Len() != n {
		t.Fatalf("assigned %d edges, want %d", asn.Len(), n)
	}
	if got := regCounter(t, reg, stream.MetricEdgesRead); got != n {
		t.Errorf("%s = %d, want %d", stream.MetricEdgesRead, got, n)
	}
	if got := regCounter(t, reg, stream.MetricSegmentsDone); got != 4 {
		t.Errorf("%s = %d, want 4", stream.MetricSegmentsDone, got)
	}
	// 16 bytes per fixed-width line.
	if got := regCounter(t, reg, stream.MetricBytesPlanned); got != n*16 {
		t.Errorf("%s = %d, want %d", stream.MetricBytesPlanned, got, n*16)
	}
}

// TestAdwiseSpecMetricsPublishesCoreCounters checks the registry path from
// Spec.Metrics through the adwise builder: run totals land on the core.*
// names after the pass.
func TestAdwiseSpecMetricsPublishesCoreCounters(t *testing.T) {
	reg := metric.New()
	st, err := New("adwise", Spec{K: 4, Latency: time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	g := syntheticEdges(2048, 1<<9)
	if _, err := st.Run(stream.FromEdges(g)); err != nil {
		t.Fatal(err)
	}
	if got := regCounter(t, reg, "core.assignments"); got != 2048 {
		t.Errorf("core.assignments = %d, want 2048", got)
	}
	if got := regCounter(t, reg, "core.score_ops"); got <= 0 {
		t.Errorf("core.score_ops = %d, want > 0", got)
	}
	if tp, ok := reg.Snapshot().Timer("core.run.latency"); !ok || tp.Count != 1 {
		t.Errorf("core.run.latency = %+v ok=%v, want one observation", tp, ok)
	}
}

// TestPublishStats checks the generic Stats bridge.
func TestPublishStats(t *testing.T) {
	reg := metric.New(metric.WithCounterStripes(1))
	PublishStats(reg, Stats{
		Assignments:         100,
		ScoreComputations:   500,
		PartitioningLatency: 25 * time.Millisecond,
	})
	PublishStats(reg, Stats{Assignments: 50})
	PublishStats(nil, Stats{Assignments: 1}) // no-op, must not panic

	if got := regCounter(t, reg, MetricRunAssignments); got != 150 {
		t.Errorf("%s = %d, want cumulative 150", MetricRunAssignments, got)
	}
	if got := regCounter(t, reg, MetricRunScoreOps); got != 500 {
		t.Errorf("%s = %d, want 500", MetricRunScoreOps, got)
	}
	if tp, ok := reg.Snapshot().Timer(MetricRunLatency); !ok || tp.Count != 2 {
		t.Errorf("%s = %+v ok=%v, want two observations", MetricRunLatency, tp, ok)
	}
}

// syntheticEdges materialises n synthetic edges (the writeBigEdgeFile
// generator, in memory).
func syntheticEdges(n int, numV uint64) []graph.Edge {
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = syntheticEdge(i, numV)
	}
	return out
}
