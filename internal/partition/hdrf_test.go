package partition

import (
	"testing"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
)

// hdrfTwoProbe is HDRF's scoring in its two-probe form: each endpoint's
// degree from Degree, then its replica set from Replicas, tested per
// partition with Set.Contains. It reads h's cache without committing, and
// serves as the oracle HDRF.Assign's one-probe scoring must match.
func hdrfTwoProbe(h *HDRF, e graph.Edge) int {
	du := float64(h.cache.Degree(e.Src) + 1)
	dv := float64(h.cache.Degree(e.Dst) + 1)
	thetaU := du / (du + dv)
	thetaV := 1 - thetaU

	ru := h.cache.Replicas(e.Src)
	rv := h.cache.Replicas(e.Dst)
	minSize, maxSize := h.cache.MinMaxSizeOf(h.parts)

	best, bestScore := h.parts[0], -1.0
	for _, p := range h.parts {
		var rep float64
		if ru.Contains(p) {
			rep += 1 + (1 - thetaU)
		}
		if rv.Contains(p) {
			rep += 1 + (1 - thetaV)
		}
		bal := float64(maxSize-h.cache.Size(p)) / (hdrfEpsilon + float64(maxSize-minSize))
		score := rep + h.lambda*bal
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// TestHDRFAssignMatchesTwoProbeOracle requires HDRF.Assign to choose, for
// every edge, the partition the two-probe oracle chooses from the same
// cache state: while the table grows, while it evicts at the floored
// budget, and at k=96 (two replica words) under an every-third spread
// whose partitions reach into the second word.
func TestHDRFAssignMatchesTwoProbeOracle(t *testing.T) {
	g, err := gen.RMAT(14, 60_000, 0.57, 0.19, 0.19, 7)
	if err != nil {
		t.Fatal(err)
	}
	var everyThird []int
	for p := 0; p < 96; p += 3 {
		everyThird = append(everyThird, p)
	}
	cases := []struct {
		name  string
		cfg   Config
		evict bool
	}{
		{"grow/k=32", Config{K: 32}, false},
		{"evict/k=32", Config{K: 32, VertexBudgetBytes: 1}, true},
		{"grow/k=96/every-third", Config{K: 96, Allowed: everyThird}, false},
		{"evict/k=96/every-third", Config{K: 96, Allowed: everyThird, VertexBudgetBytes: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := NewHDRF(tc.cfg, HDRFDefaultLambda)
			if err != nil {
				t.Fatal(err)
			}
			secondWord := 0
			for i, e := range g.Edges {
				want := hdrfTwoProbe(h, e)
				if got := h.Assign(e); got != want {
					t.Fatalf("edge %d %v: Assign chose %d, the two-probe oracle %d", i, e, got, want)
				}
				if want >= 64 {
					secondWord++
				}
			}
			c := h.Cache()
			if c.Rehashes() == 0 {
				t.Error("the table never rehashed")
			}
			if evicted := c.EvictedVertices(); (evicted > 0) != tc.evict {
				t.Errorf("evicted %d vertices, want eviction %v", evicted, tc.evict)
			}
			if tc.cfg.K > 64 && secondWord == 0 {
				t.Error("no edge went to a partition in the second replica word")
			}
		})
	}
}
