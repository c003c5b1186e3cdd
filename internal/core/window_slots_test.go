package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/scorepool"
)

// oracleIncident builds the vertex-keyed incident map the window kept
// before window-local slots, from the live sets alone: vertex → the live
// entries incident to it.
func oracleIncident(w *window) map[graph.VertexID][]*winEntry {
	incident := make(map[graph.VertexID][]*winEntry)
	for _, set := range [][]*winEntry{w.candidates, w.secondary} {
		for _, ent := range set {
			e := ent.edge
			incident[e.Src] = append(incident[e.Src], ent)
			if e.Dst != e.Src {
				incident[e.Dst] = append(incident[e.Dst], ent)
			}
		}
	}
	return incident
}

// oracleNeighbors is the historical map-based neighbourhood collection —
// the reference the slot walk must reproduce: the distinct other
// endpoints of live window edges incident to e's endpoints, excluding the
// endpoints themselves, deduplicated through a hashed seen-set.
func oracleNeighbors(incident map[graph.VertexID][]*winEntry, e graph.Edge) []graph.VertexID {
	var out []graph.VertexID
	seen := map[graph.VertexID]struct{}{e.Src: {}, e.Dst: {}}
	collect := func(v graph.VertexID) {
		for _, ent := range incident[v] {
			if ent.kind == removed {
				continue
			}
			n := ent.edge.Other(v)
			if _, dup := seen[n]; dup {
				continue
			}
			seen[n] = struct{}{}
			out = append(out, n)
		}
	}
	collect(e.Src)
	if e.Dst != e.Src {
		collect(e.Dst)
	}
	return out
}

// sameVertexSet reports whether got and want hold the same vertices,
// counting multiplicity (so a duplicate in got is a mismatch).
func sameVertexSet(got, want []graph.VertexID) bool {
	if len(got) != len(want) {
		return false
	}
	a, b := slices.Clone(got), slices.Clone(want)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// checkNeighborsMatchOracle compares the slot walk against the oracle for
// every live window entry (through its stored slots) and for every fresh
// edge over vertex ids [0, vertices) (through the slot map).
func checkNeighborsMatchOracle(t *testing.T, w *window, scr *scoreScratch, vertices int) {
	t.Helper()
	incident := oracleIncident(w)
	for _, set := range [][]*winEntry{w.candidates, w.secondary} {
		for _, ent := range set {
			got := w.neighborsInto(ent.srcSlot, ent.dstSlot, scr)
			if want := oracleNeighbors(incident, ent.edge); !sameVertexSet(got, want) {
				t.Fatalf("window entry %v: slot walk %v, oracle %v", ent.edge, got, want)
			}
		}
	}
	for u := 0; u < vertices; u++ {
		for v := 0; v < vertices; v++ {
			e := graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)}
			got := w.freshNeighbors(e, scr)
			if want := oracleNeighbors(incident, e); !sameVertexSet(got, want) {
				t.Fatalf("fresh edge %v: slot walk %v, oracle %v", e, got, want)
			}
		}
	}
}

// TestWindowSlotsMatchOracle is the slot-table property test: random
// add / batched add / pop+commit+reassess / reassess sequences over 16
// vertex ids — self-loops and duplicate edges included — free and reuse
// slots within a few pops. After every op the structural invariants must
// hold and the slot walk must match the map-based oracle for every window
// edge and every fresh edge (ids up to 17, so some endpoints have no slot).
func TestWindowSlotsMatchOracle(t *testing.T) {
	const ids = 16
	for _, tc := range []struct {
		name    string
		eager   bool
		workers int
		seed    int64
	}{
		{"lazy/serial", false, 1, 1},
		{"lazy/workers=2", false, 2, 2},
		{"eager/serial", true, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, _ := newTestScorer(4, 1.0, true, 1000)
			maxCand := 4
			if tc.eager {
				maxCand = int(^uint(0) >> 1)
			}
			var exec *scorepool.Pool
			if tc.workers > 1 {
				exec = scorepool.New(tc.workers)
				defer exec.Close()
			}
			w := newWindow(sc, newScorePool(exec, tc.workers, 4, len(sc.parts)), 0.1, maxCand, tc.eager)
			rng := rand.New(rand.NewSource(tc.seed))
			edge := func() graph.Edge {
				return graph.Edge{Src: graph.VertexID(rng.Intn(ids)), Dst: graph.VertexID(rng.Intn(ids))}
			}
			freed := 0
			for op := 0; op < 1500; op++ {
				// Adds outpace pops while the window is small and pops
				// win once it holds 24 edges, so it hovers around a size
				// where 16 ids share few slots and lists churn.
				grow := 0.65
				if w.len() >= 24 {
					grow = 0.25
				}
				switch r := rng.Float64(); {
				case r < grow*0.7 || w.len() == 0:
					w.add(edge())
				case r < grow:
					batch := make([]graph.Edge, 2+rng.Intn(5))
					for i := range batch {
						batch[i] = edge()
					}
					w.addBatch(batch)
				case r < 0.93:
					e, p, _, ok := w.popBest()
					if !ok {
						t.Fatal("popBest failed on a non-empty window")
					}
					newSrc, newDst := sc.commit(e, p)
					if newSrc {
						w.reassess(e.Src)
					}
					if newDst && e.Dst != e.Src {
						w.reassess(e.Dst)
					}
				default:
					w.reassess(graph.VertexID(rng.Intn(ids + 2)))
				}
				if len(w.freeSlots) > 0 {
					freed++
				}
				checkWindowInvariants(t, w)
				checkNeighborsMatchOracle(t, w, sc.prime, ids+2)
				if len(w.slotVertex) > ids {
					t.Fatalf("op %d: %d slots for %d vertex ids: freed slots are not reused", op, len(w.slotVertex), ids)
				}
			}
			if freed == 0 {
				t.Fatal("no slot was ever freed; the workload does not exercise reuse")
			}
		})
	}
}

// TestNeighborEpochWrap starts a scratch's epoch just below the 32-bit
// wrap, with stale stamps equal to the first epochs of the next cycle
// (and zero), and walks across the wrap: every walk must still match the
// oracle, so the wrap must clear the stamps rather than reuse them.
func TestNeighborEpochWrap(t *testing.T) {
	w, _ := newTestWindow(2, 0.1, 64, false)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		w.add(graph.Edge{Src: graph.VertexID(rng.Intn(12)), Dst: graph.VertexID(rng.Intn(12))})
	}
	scr := newScoreScratch(2, 2)
	scr.nextEpoch(len(w.slotVertex))
	for i := range scr.stamps {
		scr.stamps[i] = uint32(i % 3)
	}
	scr.epoch = math.MaxUint32 - 1
	for round := 0; round < 4; round++ {
		checkNeighborsMatchOracle(t, w, scr, 14)
	}
	if scr.epoch >= math.MaxUint32-1 {
		t.Fatalf("epoch %d did not wrap", scr.epoch)
	}
}
