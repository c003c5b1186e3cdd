package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// checkWindowInvariants verifies the structural window invariants:
// set-slice/entry agreement, the slot table and incident lists, the slot
// mirrors and maintained counts, the Θ accumulator, and the candidate
// cap.
func checkWindowInvariants(t *testing.T, w *window) {
	t.Helper()
	live := make(map[*winEntry]bool, w.len())
	if len(w.candScores) != len(w.candidates) || len(w.secScores) != len(w.secondary) {
		t.Fatalf("score slices out of sync: |candScores|=%d |C|=%d, |secScores|=%d |Q|=%d",
			len(w.candScores), len(w.candidates), len(w.secScores), len(w.secondary))
	}
	for i, ent := range w.candidates {
		if ent.kind != inCandidates {
			t.Fatalf("candidates[%d] has kind %d", i, ent.kind)
		}
		if ent.pos != i {
			t.Fatalf("candidates[%d].pos = %d", i, ent.pos)
		}
		if w.candScores[i] != ent.score {
			t.Fatalf("candScores[%d] = %v, entry caches %v", i, w.candScores[i], ent.score)
		}
		live[ent] = true
	}
	for i, ent := range w.secondary {
		if ent.kind != inSecondary {
			t.Fatalf("secondary[%d] has kind %d", i, ent.kind)
		}
		if ent.pos != i {
			t.Fatalf("secondary[%d].pos = %d", i, ent.pos)
		}
		if w.secScores[i] != ent.score {
			t.Fatalf("secScores[%d] = %v, entry caches %v", i, w.secScores[i], ent.score)
		}
		live[ent] = true
	}
	if !w.eager && len(w.candidates) > w.maxCand {
		t.Fatalf("candidate set %d exceeds cap %d", len(w.candidates), w.maxCand)
	}

	checkSlotTable(t, w, live)
	checkMirrorsAndCounts(t, w)

	if got, want := w.scoreSum, exactScoreSum(w); math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("scoreSum %v inconsistent with live entries Σ %v", got, want)
	}
}

// checkSlotTable verifies the window-local slot table against the live
// entries: slotOf and slotVertex are inverse on live slots; every slot is
// live or free, never both; free slots have empty lists and no mapping;
// live slots have non-empty lists; each entry's stored slots match its
// endpoints; and each list holds live entries incident to its vertex, with
// the inline other slot matching the entry — so every live entry sits
// exactly once in the list of each endpoint.
func checkSlotTable(t *testing.T, w *window, live map[*winEntry]bool) {
	t.Helper()
	nslots := len(w.slotVertex)
	if len(w.incident) != nslots {
		t.Fatalf("|incident| = %d, |slotVertex| = %d", len(w.incident), nslots)
	}
	state := make([]byte, nslots) // 0 unseen, 'l' live, 'f' free
	for v, s := range w.slotOf {
		if s < 0 || int(s) >= nslots {
			t.Fatalf("slotOf[%v] = %d outside [0,%d)", v, s, nslots)
		}
		if w.slotVertex[s] != v {
			t.Fatalf("slotOf[%v] = %d but slotVertex[%d] = %v", v, s, s, w.slotVertex[s])
		}
		state[s] = 'l'
	}
	for _, s := range w.freeSlots {
		if s < 0 || int(s) >= nslots {
			t.Fatalf("free slot %d outside [0,%d)", s, nslots)
		}
		if state[s] != 0 {
			t.Fatalf("free slot %d is mapped or listed free twice", s)
		}
		state[s] = 'f'
		if len(w.incident[s]) != 0 {
			t.Fatalf("free slot %d has %d incident entries", s, len(w.incident[s]))
		}
	}
	for s, st := range state {
		if st == 0 {
			t.Fatalf("slot %d is neither mapped nor free", s)
		}
		if st == 'l' && len(w.incident[s]) == 0 {
			t.Fatalf("slot %d (vertex %v) is mapped with an empty list: its last edge left without freeing it", s, w.slotVertex[s])
		}
	}

	for ent := range live {
		if s, ok := w.slotOf[ent.edge.Src]; !ok || s != ent.srcSlot {
			t.Fatalf("entry %v stores src slot %d, vertex %v has slot %d (mapped %v)", ent.edge, ent.srcSlot, ent.edge.Src, s, ok)
		}
		if s, ok := w.slotOf[ent.edge.Dst]; !ok || s != ent.dstSlot {
			t.Fatalf("entry %v stores dst slot %d, vertex %v has slot %d (mapped %v)", ent.edge, ent.dstSlot, ent.edge.Dst, s, ok)
		}
	}

	// Incident lists hold live entries only (remove unlinks eagerly); each
	// element names a live entry incident to the list's vertex, with the
	// entry's other endpoint slot inline.
	seen := make(map[*winEntry]int, len(live))
	for s, list := range w.incident {
		for _, inc := range list {
			ent := inc.ent
			if ent.kind == removed {
				t.Fatalf("incident[%d] holds removed entry %v: remove must unlink it from its endpoint lists", s, ent.edge)
			}
			if !live[ent] {
				t.Fatalf("incident[%d] holds non-removed entry %v absent from both sets", s, ent.edge)
			}
			var want int32
			switch int32(s) {
			case ent.srcSlot:
				want = ent.dstSlot
			case ent.dstSlot:
				want = ent.srcSlot
			default:
				t.Fatalf("incident[%d] holds entry %v with slots (%d,%d)", s, ent.edge, ent.srcSlot, ent.dstSlot)
			}
			if inc.other != want {
				t.Fatalf("incident[%d] element for %v has other slot %d, want %d", s, ent.edge, inc.other, want)
			}
			seen[ent]++
		}
	}
	for ent := range live {
		want := 2
		if ent.srcSlot == ent.dstSlot {
			want = 1
		}
		if seen[ent] != want {
			t.Fatalf("live entry %v appears %d times across incident lists, want %d (once per endpoint)", ent.edge, seen[ent], want)
		}
	}
}

// checkMirrorsAndCounts verifies that every live slot's mirror equals the
// cache and, while the counts are engaged, that the pair table, the
// distinct-neighbour counts and the per-partition count vectors equal a
// recomputation from the incident lists, with freed slots holding zero
// counts.
func checkMirrorsAndCounts(t *testing.T, w *window) {
	t.Helper()
	if len(w.mirDeg) != len(w.slotVertex) || len(w.mirWords) != len(w.slotVertex)*w.wpe {
		t.Fatalf("mirrors cover %d degrees and %d words for %d slots", len(w.mirDeg), len(w.mirWords), len(w.slotVertex))
	}
	for s, list := range w.incident {
		if len(list) == 0 {
			continue
		}
		v := w.slotVertex[s]
		deg, words := w.sc.cache.LookupWords(v)
		if w.mirDeg[s] != int32(deg) {
			t.Fatalf("slot %d (vertex %v) mirrors degree %d, cache %d", s, v, w.mirDeg[s], deg)
		}
		for i, got := range w.mirror(int32(s)) {
			var want uint64
			if words != nil {
				want = words[i]
			}
			if got != want {
				t.Fatalf("slot %d (vertex %v) mirrors word %d = %#x, cache %#x", s, v, i, got, want)
			}
		}
	}
	if !w.engaged {
		return
	}
	if len(w.nbrs) != len(w.slotVertex) || len(w.counts) != len(w.slotVertex)*w.nparts {
		t.Fatalf("counts cover %d slots and %d counters for %d slots", len(w.nbrs), len(w.counts), len(w.slotVertex))
	}
	pairs := 0
	for s, list := range w.incident {
		mult := make(map[int32]int32)
		for _, inc := range list {
			if inc.other != int32(s) {
				mult[inc.other]++
			}
		}
		wantCounts := make([]int32, w.nparts)
		for _, inc := range list {
			if m, ok := mult[inc.other]; ok && m > 0 {
				if got := w.pairs[pairKey(int32(s), inc.other)]; got != m {
					t.Fatalf("pair (%d,%d) multiplicity %d, lists hold %d", s, inc.other, got, m)
				}
				_, words := w.sc.cache.LookupWords(w.slotVertex[inc.other])
				scatterCount(wantCounts, w.sc.partIdx, words, 1)
				mult[inc.other] = 0 // count each distinct neighbour once
				if int32(s) < inc.other {
					pairs++
				}
			}
		}
		if got, want := w.nbrs[s], int32(len(mult)); got != want {
			t.Fatalf("slot %d counts %d distinct neighbours, lists hold %d", s, got, want)
		}
		if got := w.slotCounts(int32(s)); !slices.Equal(got, wantCounts) {
			t.Fatalf("slot %d neighbour counts %v, recomputed %v", s, got, wantCounts)
		}
	}
	for key, m := range w.pairs {
		if m <= 0 {
			t.Fatalf("pair key %#x holds multiplicity %d", key, m)
		}
	}
	if len(w.pairs) != pairs {
		t.Fatalf("pair table holds %d pairs, lists link %d", len(w.pairs), pairs)
	}
}

// TestWindowInvariantsRandomized drives the window through a randomized
// add/pop/reassess workload, checking the structural invariants
// throughout — in both lazy and eager mode.
func TestWindowInvariantsRandomized(t *testing.T) {
	for _, tc := range []struct {
		name  string
		eager bool
	}{
		{"lazy/serial", false},
		{"eager/serial", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, _ := newTestScorer(8, 1.0, true, 10_000)
			maxCand := 32
			if tc.eager {
				maxCand = int(^uint(0) >> 1)
			}
			w := newWindow(sc, 0.1, maxCand, tc.eager)
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 4000; i++ {
				switch r := rng.Float64(); {
				case r < 0.55 || w.len() == 0:
					w.add(graph.Edge{Src: graph.VertexID(rng.Intn(256)), Dst: graph.VertexID(rng.Intn(256))})
				case r < 0.9:
					e, p, _, ok := w.popBest()
					if !ok {
						t.Fatal("popBest failed on non-empty window")
					}
					newSrc, newDst := w.commit(e, p)
					if !tc.eager {
						if newSrc {
							w.reassess(e.Src)
						}
						if newDst && e.Dst != e.Src {
							w.reassess(e.Dst)
						}
					}
				default:
					w.reassess(graph.VertexID(rng.Intn(256)))
				}
				if i%50 == 0 {
					checkWindowInvariants(t, w)
				}
			}
			checkWindowInvariants(t, w)
		})
	}
}
