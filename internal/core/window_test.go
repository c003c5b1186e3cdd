package core

import (
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

func newTestWindow(k int, epsilon float64, maxCand int, eager bool) (*window, *scorer) {
	sc, _ := newTestScorer(k, 1.0, true, 100)
	w := newWindow(sc, epsilon, maxCand, eager)
	return w, sc
}

func TestWindowThetaTracksMean(t *testing.T) {
	w, _ := newTestWindow(2, 0.1, 64, false)
	if got := w.theta(); got != 0.1 {
		t.Errorf("theta on empty window = %v, want ε=0.1", got)
	}
	w.add(graph.Edge{Src: 0, Dst: 1})
	w.add(graph.Edge{Src: 2, Dst: 3})
	// Empty cache: all scores 0 → mean 0 → Θ = ε.
	if got := w.theta(); got != 0.1 {
		t.Errorf("theta = %v, want 0.1", got)
	}
	if w.len() != 2 {
		t.Errorf("len = %d, want 2", w.len())
	}
}

func TestWindowClassification(t *testing.T) {
	// With a populated cache, an edge incident to a replicated vertex
	// scores above Θ and must enter the candidate set; a cold edge stays
	// secondary. Partition sizes are kept balanced so the cold edge's
	// balance term is exactly zero.
	w, _ := newTestWindow(2, 0.1, 64, false)
	w.commit(graph.Edge{Src: 0, Dst: 1}, 0)
	w.commit(graph.Edge{Src: 20, Dst: 21}, 1)

	w.add(graph.Edge{Src: 50, Dst: 51}) // cold: zero score
	w.add(graph.Edge{Src: 0, Dst: 60})  // hot: replication score on p0
	if len(w.candidates) != 1 {
		t.Fatalf("candidates = %d, want 1", len(w.candidates))
	}
	if len(w.secondary) != 1 {
		t.Fatalf("secondary = %d, want 1", len(w.secondary))
	}
	if got := w.candidates[0].edge; got != (graph.Edge{Src: 0, Dst: 60}) {
		t.Errorf("candidate edge = %v", got)
	}
}

func TestWindowEagerAllCandidates(t *testing.T) {
	w, _ := newTestWindow(2, 0.1, 64, true)
	w.add(graph.Edge{Src: 0, Dst: 1})
	w.add(graph.Edge{Src: 2, Dst: 3})
	if len(w.candidates) != 2 || len(w.secondary) != 0 {
		t.Errorf("eager window split %d/%d, want all candidates",
			len(w.candidates), len(w.secondary))
	}
}

func TestWindowMaxCandidatesRespected(t *testing.T) {
	w, _ := newTestWindow(2, 0.0, 2, false)
	w.commit(graph.Edge{Src: 0, Dst: 1}, 0)
	// Several hot edges, but the candidate cap is 2.
	for i := 0; i < 5; i++ {
		w.add(graph.Edge{Src: 0, Dst: graph.VertexID(100 + i)})
	}
	if len(w.candidates) > 2 {
		t.Errorf("candidates = %d, want <= cap 2", len(w.candidates))
	}
	if w.len() != 5 {
		t.Errorf("window lost edges: len=%d", w.len())
	}
}

func TestWindowPopBestDrainsEverything(t *testing.T) {
	w, _ := newTestWindow(2, 0.1, 64, false)
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 2, Dst: 0}}
	for _, e := range edges {
		w.add(e)
	}
	seen := make(map[graph.Edge]bool)
	for i := 0; i < len(edges); i++ {
		e, p, _, ok := w.popBest()
		if !ok {
			t.Fatalf("popBest exhausted after %d pops, want %d", i, len(edges))
		}
		if p < 0 || p >= 2 {
			t.Fatalf("popBest partition %d out of range", p)
		}
		if seen[e] {
			t.Fatalf("edge %v popped twice", e)
		}
		seen[e] = true
		w.commit(e, p)
	}
	if _, _, _, ok := w.popBest(); ok {
		t.Error("popBest returned an edge from an empty window")
	}
	if w.len() != 0 {
		t.Errorf("window len = %d after draining", w.len())
	}
}

func TestWindowPopBestPrefersInformedEdge(t *testing.T) {
	// The Figure 3(b) scenario: with e1 cold and e2 hot, the window must
	// assign e2 first even though e1 arrived first.
	w, _ := newTestWindow(2, 0.01, 64, false)
	w.commit(graph.Edge{Src: 10, Dst: 11}, 0) // warm up vertex 10 on p0

	cold := graph.Edge{Src: 1, Dst: 2}
	hot := graph.Edge{Src: 10, Dst: 3}
	w.add(cold)
	w.add(hot)
	e, p, score, ok := w.popBest()
	if !ok {
		t.Fatal("popBest failed")
	}
	if e != hot {
		t.Errorf("popped %v first, want the informed edge %v", e, hot)
	}
	if p != 0 {
		t.Errorf("assigned to %d, want 0 (replica of vertex 10)", p)
	}
	if score <= 0 {
		t.Errorf("winning score = %v, want > 0", score)
	}
}

func TestWindowReassessPromotes(t *testing.T) {
	w, _ := newTestWindow(2, 0.05, 64, false)
	// Cold edge lands in secondary.
	cold := graph.Edge{Src: 7, Dst: 8}
	w.add(cold)
	if len(w.secondary) != 1 {
		t.Fatalf("expected cold edge in secondary, got %d/%d", len(w.candidates), len(w.secondary))
	}
	// An assignment creates a replica for vertex 7 — reassessing must
	// promote the incident secondary edge past Θ.
	w.commit(graph.Edge{Src: 7, Dst: 9}, 1)
	w.reassess(7)
	if len(w.candidates) != 1 {
		t.Errorf("reassess did not promote: %d/%d", len(w.candidates), len(w.secondary))
	}
	if w.promotions != 1 {
		t.Errorf("promotions = %d, want 1", w.promotions)
	}
}

func TestWindowNeighborsFromWindowEdges(t *testing.T) {
	w, _ := newTestWindow(2, 0.1, 64, false)
	w.add(graph.Edge{Src: 1, Dst: 2})
	w.add(graph.Edge{Src: 2, Dst: 3})
	w.add(graph.Edge{Src: 4, Dst: 5})

	// N(1)∪N(2) for edge (1,2): from window edges, 2's other neighbour is
	// 3; endpoints themselves are excluded.
	nbs := w.neighbors(graph.Edge{Src: 1, Dst: 2})
	if len(nbs) != 1 || nbs[0] != 3 {
		t.Errorf("neighbors = %v, want [3]", nbs)
	}
	// Disconnected edge has no window neighbourhood.
	if nbs := w.neighbors(graph.Edge{Src: 4, Dst: 5}); len(nbs) != 0 {
		t.Errorf("neighbors = %v, want empty", nbs)
	}
}

func TestWindowIncidentCompaction(t *testing.T) {
	w, _ := newTestWindow(2, 0.1, 64, false)
	e1 := graph.Edge{Src: 1, Dst: 2}
	e2 := graph.Edge{Src: 1, Dst: 3}
	w.add(e1)
	w.add(e2)
	// Pop both; every endpoint's list empties and its slot is freed.
	for i := 0; i < 2; i++ {
		e, p, _, ok := w.popBest()
		if !ok {
			t.Fatal("popBest failed")
		}
		w.commit(e, p)
	}
	if s, ok := w.slotOf[1]; ok {
		t.Errorf("vertex 1 still maps to slot %d (%d entries) after its last edge left", s, len(w.incident[s]))
	}
	if len(w.slotOf) != 0 || len(w.freeSlots) != len(w.slotVertex) {
		t.Errorf("%d slots mapped, %d of %d free after draining", len(w.slotOf), len(w.freeSlots), len(w.slotVertex))
	}
	// A new edge reuses a freed slot instead of growing the table.
	w.add(graph.Edge{Src: 7, Dst: 8})
	if len(w.slotVertex) != 3 {
		t.Errorf("slot table grew to %d after reuse, want 3", len(w.slotVertex))
	}
}

func TestWindowScoreSumConsistency(t *testing.T) {
	w, _ := newTestWindow(4, 0.1, 64, false)
	w.commit(graph.Edge{Src: 0, Dst: 1}, 0)
	w.commit(graph.Edge{Src: 2, Dst: 3}, 1)
	edges := []graph.Edge{{Src: 0, Dst: 5}, {Src: 2, Dst: 6}, {Src: 7, Dst: 8}, {Src: 0, Dst: 2}}
	for _, e := range edges {
		w.add(e)
	}
	for w.len() > 0 {
		var sum float64
		for _, ent := range w.candidates {
			sum += ent.score
		}
		for _, ent := range w.secondary {
			sum += ent.score
		}
		if diff := sum - w.scoreSum; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("scoreSum drifted: tracked %v, actual %v", w.scoreSum, sum)
		}
		e, p, _, ok := w.popBest()
		if !ok {
			break
		}
		w.commit(e, p)
	}
}
