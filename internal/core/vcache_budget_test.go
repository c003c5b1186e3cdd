package core

import (
	"testing"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
	"github.com/adwise-go/adwise/internal/vcache"
)

// TestBoundedEighthBudgetDegradation pins the graceful-degradation
// envelope: the unbounded reference run must evict nothing and report its
// byte footprint, and at one eighth of its peak the run must still assign
// every edge, must actually evict, must stay within its effective budget,
// and must keep the replication factor within 2x of the unbounded
// reference on a skewed RMAT stream. The 2x bound is deliberately loose —
// it guards against pathological quality collapse (e.g. eviction
// thrashing that forgets every hub), not against the expected few-percent
// drift the memory experiment tracks.
func TestBoundedEighthBudgetDegradation(t *testing.T) {
	g, err := gen.RMAT(15, 60_000, 0.57, 0.19, 0.19, 11)
	if err != nil {
		t.Fatal(err)
	}
	run := func(budget int64) (*metrics.Assignment, RunStats) {
		t.Helper()
		opts := []Option{
			WithInitialWindow(256),
			WithFixedWindow(),
			WithMaxCandidates(256),
		}
		if budget > 0 {
			opts = append(opts, WithVertexBudget(budget))
		}
		ad, err := New(8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(stream.FromEdges(g.Edges))
		if err != nil {
			t.Fatal(err)
		}
		return a, ad.Stats()
	}

	refA, refStats := run(0)
	refRF := metrics.Summarize(refA).ReplicationDegree
	if refStats.EvictedVertices != 0 {
		t.Fatalf("unbounded run evicted %d vertices", refStats.EvictedVertices)
	}
	if refStats.PeakCacheBytes == 0 || refStats.CacheBytes == 0 {
		t.Fatalf("unbounded run did not report cache bytes (bytes=%d peak=%d)",
			refStats.CacheBytes, refStats.PeakCacheBytes)
	}

	budget := refStats.PeakCacheBytes / 8
	a, st := run(budget)
	if a.Len() != refA.Len() {
		t.Fatalf("bounded run assigned %d edges, unbounded %d", a.Len(), refA.Len())
	}
	effective := vcache.New(8, budget).Budget()
	if st.PeakCacheBytes > effective {
		t.Fatalf("peak %d exceeds effective budget %d", st.PeakCacheBytes, effective)
	}
	if effective < refStats.PeakCacheBytes && st.EvictedVertices == 0 {
		t.Fatalf("effective budget %d below unbounded peak %d but nothing was evicted",
			effective, refStats.PeakCacheBytes)
	}
	rf := metrics.Summarize(a).ReplicationDegree
	if rf > 2*refRF {
		t.Fatalf("replication factor %.4f at 1/8 budget exceeds 2x the unbounded %.4f", rf, refRF)
	}
	t.Logf("unbounded rf=%.4f peak=%d; 1/8 budget rf=%.4f (%.3fx) peak=%d evicted=%d",
		refRF, refStats.PeakCacheBytes, rf, rf/refRF, st.PeakCacheBytes, st.EvictedVertices)
}
