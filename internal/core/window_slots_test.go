package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/vcache"
)

// The neighbour-list form of the clustering score, kept as the oracle of
// the window's producers and of the production kernel: collect N(u)∪N(v)
// as a vertex list by walking the slot lists, then probe the cache for
// every neighbour.

// neighbors collects the window neighbourhood N(u)∪N(v) of a fresh edge
// over the scorer's scratch.
func (w *window) neighbors(e graph.Edge) []graph.VertexID {
	return w.freshNeighbors(e, w.sc.scratch)
}

// freshNeighbors collects the neighbourhood of an edge that is not (yet)
// a window entry, resolving its endpoints through the slot map.
func (w *window) freshNeighbors(e graph.Edge, scr *scoreScratch) []graph.VertexID {
	return w.neighborsInto(w.slotOrNone(e.Src), w.slotOrNone(e.Dst), scr)
}

// neighborsInto walks the incident lists of endpoint slots su and sv (−1
// for an endpoint without a slot) and returns the distinct other
// vertices, excluding the endpoints, deduplicated through the scratch's
// epoch stamps.
func (w *window) neighborsInto(su, sv int32, scr *scoreScratch) []graph.VertexID {
	stamps, epoch := scr.nextEpoch(len(w.slotVertex))
	if su >= 0 {
		stamps[su] = epoch
	}
	if sv >= 0 {
		stamps[sv] = epoch
	}
	var nbs []graph.VertexID
	if su >= 0 {
		nbs = w.collectSlot(su, stamps, epoch, nbs)
	}
	if sv >= 0 && sv != su {
		nbs = w.collectSlot(sv, stamps, epoch, nbs)
	}
	return nbs
}

// collectSlot appends the vertices of slot s's list whose other slot is
// not yet stamped with epoch, stamping each as it goes.
func (w *window) collectSlot(s int32, stamps []uint32, epoch uint32, nbs []graph.VertexID) []graph.VertexID {
	for _, inc := range w.incident[s] {
		if stamps[inc.other] == epoch {
			continue
		}
		stamps[inc.other] = epoch
		nbs = append(nbs, w.slotVertex[inc.other])
	}
	return nbs
}

// scoreEdgeNeighbors is the neighbour-list kernel: it probes the cache for
// both endpoints and for every neighbour, accumulating the clustering
// counts as float64s per global partition before the same fold as the
// production kernel.
func scoreEdgeNeighbors(v *scoreView, cache *vcache.Cache, e graph.Edge, neighbors []graph.VertexID) (scores []float64, best float64, bestPart int) {
	csCounts := make([]float64, paddedParts(cache.K()))
	scores = make([]float64, len(v.parts))
	degU, ruWords := cache.LookupWords(e.Src)
	useCS := v.clustering && len(neighbors) > 0
	if useCS {
		for _, n := range neighbors {
			_, nw := cache.LookupWords(n)
			for wi, wd := range nw {
				for wd != 0 {
					csCounts[wi<<6+bits.TrailingZeros64(wd)]++
					wd &= wd - 1
				}
			}
		}
	}
	copy(scores, v.balance)
	scatterReplica(scores, v.partIdx, ruWords, 2-float64(degU)/(2*v.maxDeg))
	if e.Dst != e.Src {
		degV, rvWords := cache.LookupWords(e.Dst)
		scatterReplica(scores, v.partIdx, rvWords, 2-float64(degV)/(2*v.maxDeg))
	}
	if useCS {
		invN := 1 / float64(len(neighbors))
		for i, p := range v.parts {
			scores[i] += csCounts[p] * invN
		}
	}
	best, bestPart = -1, v.parts[0]
	for i, g := range scores {
		if g > best {
			best, bestPart = g, v.parts[i]
		}
	}
	return scores, best, bestPart
}

// oracleCounts derives the clustering inputs of a neighbour list by cache
// probe: |N| and, per allowed partition, how many neighbours are
// replicated there.
func oracleCounts(sc *scorer, neighbors []graph.VertexID) (int, []int32) {
	counts := make([]int32, len(sc.parts))
	for _, n := range neighbors {
		_, words := sc.cache.LookupWords(n)
		scatterCount(counts, sc.partIdx, words, 1)
	}
	return len(neighbors), counts
}

// probeEndpoint returns v's kernel input by cache probe.
func probeEndpoint(cache *vcache.Cache, v graph.VertexID) endpoint {
	deg, words := cache.LookupWords(v)
	return endpoint{deg: int32(deg), words: words}
}

// scoreEdge scores e against a fresh view with the production kernel on
// the scorer's scratch, deriving the kernel inputs the oracle's way: the
// endpoints and the given neighbourhood by cache probe.
func (s *scorer) scoreEdge(e graph.Edge, neighbors []graph.VertexID) (scores []float64, best float64, bestPart int) {
	v := s.view()
	var dst endpoint
	if e.Dst != e.Src {
		dst = probeEndpoint(s.cache, e.Dst)
	}
	n, counts := 0, []int32(nil)
	if v.clustering {
		n, counts = oracleCounts(s, neighbors)
	}
	return v.scoreEdge(probeEndpoint(s.cache, e.Src), dst, n, counts, s.scratch)
}

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

// checkProducersMatchOracle compares the window against the map-based
// oracle for every live window entry (through its stored slots) and for
// every fresh edge over vertex ids [0, vertices) (through the slot map):
// the slot walk must collect the oracle's neighbours; the walk producer
// and, while engaged, the counts producer must yield the oracle's |N| and
// per-partition counts; and the window's score must equal the
// neighbour-list kernel's bit for bit. scr must not be a scratch the
// window scores with, so the check leaves the engagement rule's inputs
// alone.
func checkProducersMatchOracle(t *testing.T, w *window, scr *scoreScratch, vertices int) {
	t.Helper()
	incident := oracleIncident(w)
	view := w.sc.view()
	check := func(kind string, e graph.Edge, su, sv int32) {
		t.Helper()
		want := oracleNeighbors(incident, e)
		if got := w.neighborsInto(su, sv, scr); !sameVertexSet(got, want) {
			t.Fatalf("%s %v: slot walk %v, oracle %v", kind, e, got, want)
		}
		wantN, wantCounts := oracleCounts(w.sc, want)
		if n := w.walkNeighborhood(su, sv, scr); n != wantN || !slices.Equal(scr.cs, wantCounts) {
			t.Fatalf("%s %v: walk producer |N|=%d counts %v, oracle |N|=%d counts %v", kind, e, n, scr.cs, wantN, wantCounts)
		}
		if w.engaged {
			if n := w.countedNeighborhood(su, sv, scr); n != wantN || !slices.Equal(scr.cs, wantCounts) {
				t.Fatalf("%s %v: counts producer |N|=%d counts %v, oracle |N|=%d counts %v", kind, e, n, scr.cs, wantN, wantCounts)
			}
		}
		best, part := w.score(&view, e, su, sv, scr)
		if _, wantBest, wantPart := scoreEdgeNeighbors(&view, w.sc.cache, e, want); best != wantBest || part != wantPart {
			t.Fatalf("%s %v: window score %v on p%d, neighbour-list kernel %v on p%d", kind, e, best, part, wantBest, wantPart)
		}
	}
	for _, set := range [][]*winEntry{w.candidates, w.secondary} {
		for _, ent := range set {
			check("window entry", ent.edge, ent.srcSlot, ent.dstSlot)
		}
	}
	for u := 0; u < vertices; u++ {
		for v := 0; v < vertices; v++ {
			e := graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)}
			check("fresh edge", e, w.slotOrNone(e.Src), w.slotOrNone(e.Dst))
		}
	}
}

// TestWindowSlotsMatchOracle is the slot-table property test: random
// add / run of adds / pop+commit+reassess / reassess / engage / drop
// sequences over 16 vertex ids — self-loops and duplicate edges included —
// free and reuse slots within a few pops and switch the clustering
// producer back and forth. After every op the structural invariants
// (mirrors and maintained counts included) must hold and both producers
// must match the map-based oracle for every window edge and every fresh
// edge (ids up to 17, so some endpoints have no slot).
func TestWindowSlotsMatchOracle(t *testing.T) {
	const ids = 16
	for _, tc := range []struct {
		name  string
		eager bool
		seed  int64
	}{
		{"lazy/serial", false, 1},
		{"lazy/seed=2", false, 2},
		{"eager/serial", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, _ := newTestScorer(4, 1.0, true, 1000)
			maxCand := 4
			if tc.eager {
				maxCand = int(^uint(0) >> 1)
			}
			w := newWindow(sc, 0.1, maxCand, tc.eager)
			chk := newScoreScratch(len(sc.parts))
			rng := rand.New(rand.NewSource(tc.seed))
			edge := func() graph.Edge {
				return graph.Edge{Src: graph.VertexID(rng.Intn(ids)), Dst: graph.VertexID(rng.Intn(ids))}
			}
			freed, engagedOps := 0, 0
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
					for range 2 + rng.Intn(5) {
						w.add(edge())
					}
				case r < 0.9:
					e, p, _, ok := w.popBest()
					if !ok {
						t.Fatal("popBest failed on a non-empty window")
					}
					newSrc, newDst := w.commit(e, p)
					if newSrc {
						w.reassess(e.Src)
					}
					if newDst && e.Dst != e.Src {
						w.reassess(e.Dst)
					}
				case r < 0.95:
					w.reassess(graph.VertexID(rng.Intn(ids + 2)))
				case w.engaged:
					w.drop()
				default:
					w.engage()
				}
				if len(w.freeSlots) > 0 {
					freed++
				}
				if w.engaged {
					engagedOps++
				}
				checkWindowInvariants(t, w)
				checkProducersMatchOracle(t, w, chk, ids+2)
				if len(w.slotVertex) > ids {
					t.Fatalf("op %d: %d slots for %d vertex ids: freed slots are not reused", op, len(w.slotVertex), ids)
				}
			}
			if freed == 0 {
				t.Fatal("no slot was ever freed; the workload does not exercise reuse")
			}
			if engagedOps == 0 || engagedOps == 1500 {
				t.Fatalf("counts engaged for %d of 1500 ops; the workload must exercise both producers", engagedOps)
			}
		})
	}
}

// TestNeighborEpochWrap starts a scratch's epoch just below the 32-bit
// wrap, with stale stamps equal to the first epochs of the next cycle
// (and zero), and walks across the wrap with both producers: every walk
// must still match the oracle, so the wrap must clear the stamps rather
// than reuse them.
func TestNeighborEpochWrap(t *testing.T) {
	w, _ := newTestWindow(2, 0.1, 64, false)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		w.add(graph.Edge{Src: graph.VertexID(rng.Intn(12)), Dst: graph.VertexID(rng.Intn(12))})
	}
	w.engage()
	scr := newScoreScratch(2)
	scr.nextEpoch(len(w.slotVertex))
	for i := range scr.stamps {
		scr.stamps[i] = uint32(i % 3)
	}
	scr.epoch = math.MaxUint32 - 1
	for round := 0; round < 4; round++ {
		checkProducersMatchOracle(t, w, scr, 14)
	}
	if scr.epoch >= math.MaxUint32-1 {
		t.Fatalf("epoch %d did not wrap", scr.epoch)
	}
}

// TestEvictionResyncsMirrorsAndCounts drives a window over the floored
// vertex budget with the maintained counts engaged. Commits evict
// low-degree vertices, window endpoints among them, so every commit that
// moves the eviction count must re-sync every live mirror and move the
// lost bits out of the neighbours' counts. After every commit the mirrors
// and counts must equal the cache and a recomputation from the lists, and
// periodically both producers must match the oracle.
func TestEvictionResyncsMirrorsAndCounts(t *testing.T) {
	const k = 16
	parts := make([]int, k)
	for i := range parts {
		parts[i] = i
	}
	cache := vcache.New(k, 1)
	sc := newScorer(cache, parts, config{
		initialLambda: DefaultInitialLambda,
		lambdaMin:     DefaultLambdaMin,
		lambdaMax:     DefaultLambdaMax,
		balanceEps:    DefaultBalanceEps,
		clustering:    true,
	})
	sc.totalEdges = 8000
	w := newWindow(sc, DefaultEpsilon, 32, false)
	chk := newScoreScratch(k)
	rng := rand.New(rand.NewSource(8))
	// Hubs 0..7 meet a long tail of fresh vertices, so the table fills
	// with degree-1 vertices and every eviction sweep drops some that
	// still hold window slots.
	edge := func() graph.Edge {
		return graph.Edge{Src: graph.VertexID(rng.Intn(8)), Dst: graph.VertexID(8 + rng.Intn(20_000))}
	}
	for w.len() < 256 {
		w.add(edge())
	}
	w.engage()
	evictedSlots := 0
	for i := 0; i < 4000; i++ {
		e, p, _, ok := w.popBest()
		if !ok {
			t.Fatal("popBest failed on a non-empty window")
		}
		before := cache.EvictedVertices()
		newSrc, newDst := w.commit(e, p)
		if cache.EvictedVertices() != before {
			for s, list := range w.incident {
				if deg, _ := cache.LookupWords(w.slotVertex[s]); len(list) > 0 && deg == 0 {
					evictedSlots++
				}
			}
		}
		if newSrc {
			w.reassess(e.Src)
		}
		if newDst {
			w.reassess(e.Dst)
		}
		w.add(edge())
		checkMirrorsAndCounts(t, w)
		if i%500 == 0 {
			checkProducersMatchOracle(t, w, chk, 32)
		}
	}
	if !w.engaged {
		t.Fatal("the counts were dropped; the test must exercise them throughout")
	}
	if evictedSlots == 0 {
		t.Fatalf("%d evictions never hit a vertex holding a window slot", cache.EvictedVertices())
	}
}
