package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/scorepool"
	"github.com/adwise-go/adwise/internal/stream"
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
// throughout — in both lazy and eager mode, serial and sharded.
func TestWindowInvariantsRandomized(t *testing.T) {
	for _, tc := range []struct {
		name    string
		eager   bool
		workers int
	}{
		{"lazy/serial", false, 1},
		{"lazy/workers=4", false, 4},
		{"eager/serial", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, _ := newTestScorer(8, 1.0, true, 10_000)
			maxCand := 32
			if tc.eager {
				maxCand = int(^uint(0) >> 1)
			}
			var exec *scorepool.Pool
			if tc.workers > 1 {
				exec = scorepool.New(tc.workers)
				defer exec.Close()
			}
			pool := newScorePool(exec, tc.workers, len(sc.parts))
			w := newWindow(sc, pool, 0.1, maxCand, tc.eager)
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

// equivalenceGraph is the ≥100k-edge stream of the serial ≡ parallel
// contract test.
func equivalenceGraph(t testing.TB) []graph.Edge {
	t.Helper()
	g, err := gen.RMAT(17, 100_000, 0.57, 0.19, 0.19, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g.Edges
}

// TestParallelScoringMatchesSerial is the determinism contract: sharding
// window scoring across any worker count must produce edge-for-edge
// identical assignments to the serial run — same edges, same order, same
// partitions — on a 100k-edge skewed graph, in lazy and eager mode.
// Run under -race this also exercises the pool for data races.
func TestParallelScoringMatchesSerial(t *testing.T) {
	edges := equivalenceGraph(t)
	run := func(workers int, opts ...Option) *metrics.Assignment {
		t.Helper()
		all := append([]Option{
			WithInitialWindow(1024),
			WithFixedWindow(),
			WithMaxCandidates(512),
			WithScoreWorkers(workers),
		}, opts...)
		ad, err := New(8, all...)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ad.Run(stream.FromEdges(edges))
		if err != nil {
			t.Fatal(err)
		}
		if got := ad.Stats().ScoreWorkers; got != workers {
			t.Fatalf("resolved ScoreWorkers = %d, want %d", got, workers)
		}
		return a
	}

	serial := run(1)
	if serial.Len() != len(edges) {
		t.Fatalf("serial run assigned %d of %d edges", serial.Len(), len(edges))
	}
	for _, workers := range []int{2, 8} {
		parallel := run(workers)
		if parallel.Len() != serial.Len() {
			t.Fatalf("workers=%d assigned %d edges, serial %d", workers, parallel.Len(), serial.Len())
		}
		for i := range serial.Edges {
			if serial.Edges[i] != parallel.Edges[i] || serial.Parts[i] != parallel.Parts[i] {
				t.Fatalf("workers=%d diverged at assignment %d: serial %v→%d, parallel %v→%d",
					workers, i, serial.Edges[i], serial.Parts[i], parallel.Edges[i], parallel.Parts[i])
			}
		}
	}

	// Eager mode rescores the whole window every pop — the heaviest pool
	// user; a smaller prefix keeps the quadratic pass affordable.
	short := edges[:10_000]
	eSerial, eParallel := runEager(t, short, 1), runEager(t, short, 4)
	for i := range eSerial.Edges {
		if eSerial.Edges[i] != eParallel.Edges[i] || eSerial.Parts[i] != eParallel.Parts[i] {
			t.Fatalf("eager workers=4 diverged at assignment %d", i)
		}
	}
}

func runEager(t *testing.T, edges []graph.Edge, workers int) *metrics.Assignment {
	t.Helper()
	ad, err := New(8,
		WithInitialWindow(256),
		WithFixedWindow(),
		WithEagerTraversal(),
		WithScoreWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ad.Run(stream.FromEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWorkerStatsFolded verifies the per-worker accounting: sharded
// passes happen, their ops land in the per-worker counters, and the
// total ScoreComputations includes both the pool's and the serial ops.
func TestWorkerStatsFolded(t *testing.T) {
	edges := equivalenceGraph(t)[:20_000]
	ad, err := New(8,
		WithInitialWindow(256),
		WithFixedWindow(),
		WithEagerTraversal(), // every pop is a full-window sharded rescore
		WithScoreWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Run(stream.FromEdges(edges)); err != nil {
		t.Fatal(err)
	}
	st := ad.Stats()
	if st.ScoreWorkers != 2 {
		t.Errorf("ScoreWorkers = %d, want 2", st.ScoreWorkers)
	}
	if st.ParallelScorePasses == 0 {
		t.Error("ParallelScorePasses = 0: eager 256-window pops should shard")
	}
	if len(st.WorkerScoreOps) != 2 {
		t.Fatalf("WorkerScoreOps has %d workers, want 2", len(st.WorkerScoreOps))
	}
	var poolOps int64
	for i, ops := range st.WorkerScoreOps {
		if ops == 0 {
			t.Errorf("worker %d did no scoring work across %d sharded passes", i, st.ParallelScorePasses)
		}
		poolOps += ops
	}
	if st.ScoreComputations < poolOps {
		t.Errorf("ScoreComputations %d below pool ops %d: serial ops not folded", st.ScoreComputations, poolOps)
	}
}

// TestTopTwoCachedShardedMatchesSerial exercises the deterministic
// reduction directly: the sharded top-two merge must reproduce the serial
// left-to-right scan — including first-wins tie-breaks — on adversarial
// score layouts larger than the scan grain.
func TestTopTwoCachedShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := scanGrain + 1234
	scores := make([]float64, n)
	for i := range scores {
		// Coarse quantisation forces plenty of exact ties, including for
		// the maximum, so the insertion-order tie-break is really tested.
		scores[i] = float64(rng.Intn(64))
	}
	exec := scorepool.New(4)
	defer exec.Close()
	pool := newScorePool(exec, 4, 2)

	for round := 0; round < 50; round++ {
		serialTop := scanTopTwo(scores, 0, len(scores))
		gotIdx, gotSecond := pool.topTwoCached(scores)
		if gotIdx != serialTop.bestIdx || gotSecond != serialTop.second {
			t.Fatalf("round %d: sharded (idx=%d second=%v) != serial (idx=%d second=%v)",
				round, gotIdx, gotSecond, serialTop.bestIdx, serialTop.second)
		}
		// Perturb for the next round.
		for i := 0; i < 100; i++ {
			scores[rng.Intn(n)] = float64(rng.Intn(64))
		}
	}
	if pool.passes == 0 {
		t.Fatal("sharded scan never engaged the pool")
	}
}

// TestForEachShardsTile verifies the fixed shard boundaries: every index
// covered exactly once, shard assignment a pure function of (items, n).
func TestForEachShardsTile(t *testing.T) {
	exec := scorepool.New(2)
	defer exec.Close()
	for _, n := range []int{1, 2, 3, 7, 8} {
		pool := newScorePool(exec, n, 2)
		for _, items := range []int{0, 1, 5, 63, 64, 1000, 4096} {
			covered := make([]int32, items)
			// Shards cover disjoint index ranges, so the concurrent writes
			// below are race-free by construction — exactly the disjoint-
			// slot rule real passes rely on.
			pool.forEach(items, 1, func(worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d items=%d: index %d covered %d times", n, items, i, c)
				}
			}
		}
	}
}
