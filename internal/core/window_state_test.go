package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// Regression tests for window-state bugs: the stale-partition secondary
// fallback, the live-Θ reads of lazy selection, and scoreSum
// floating-point drift.

// findEntry locates the window entry of an edge across both sets.
func findEntry(t *testing.T, w *window, e graph.Edge) *winEntry {
	t.Helper()
	for _, ent := range w.candidates {
		if ent.edge == e {
			return ent
		}
	}
	for _, ent := range w.secondary {
		if ent.edge == e {
			return ent
		}
	}
	t.Fatalf("edge %v not found in window", e)
	return nil
}

// forceCandidate moves an entry into the candidate set regardless of its
// classification, mimicking an earlier promotion.
func forceCandidate(w *window, ent *winEntry) {
	if ent.kind != inCandidates {
		w.detach(ent)
		w.pushCandidate(ent)
	}
}

// forceSecondary moves an entry into the secondary set.
func forceSecondary(w *window, ent *winEntry) {
	if ent.kind != inSecondary {
		w.detach(ent)
		w.pushSecondary(ent)
	}
}

// TestPopBestSecondaryFallbackRescoresStaleEntry pins the fix for the
// stale-partition fallback: when lazy selection demotes every candidate,
// popBest pops the best *secondary* entry by cached score — and that
// entry may have been scored long before arbitrary cache changes. The
// popped assignment must match a fresh scoreEdge against the current
// cache, not the cached argmax.
func TestPopBestSecondaryFallbackRescoresStaleEntry(t *testing.T) {
	w, sc := newTestWindow(2, 0.1, 64, false)

	// Vertex 200 gains a replica on p0; the window caches the stale edge
	// S while p0 is still the right answer.
	w.commit(graph.Edge{Src: 200, Dst: 299}, 0)
	s := graph.Edge{Src: 200, Dst: 201}
	w.add(s)
	entS := findEntry(t, w, s)
	if entS.part != 0 {
		t.Fatalf("setup: cached part = %d, want 0 while p0 holds the only replica", entS.part)
	}
	forceSecondary(w, entS)
	staleScore, stalePart := entS.score, entS.part

	// The cache moves on: 200 gains a p1 replica and p0 crowds up, so a
	// fresh score now prefers p1 — but S's cache still says p0.
	w.commit(graph.Edge{Src: 200, Dst: 450}, 1)
	w.commit(graph.Edge{Src: 500, Dst: 501}, 0)
	w.commit(graph.Edge{Src: 502, Dst: 503}, 0)
	wantScores, wantScore, wantPart := sc.scoreEdge(s, w.neighbors(s))
	_ = wantScores
	if wantPart == stalePart {
		t.Fatalf("setup: fresh argmax %d did not diverge from stale cache %d", wantPart, stalePart)
	}

	// Five cold candidates whose inflated cached scores all decay to
	// ~nothing: four demote through the lazy retries, the fifth through
	// the full-rescore fallback, leaving the candidate set empty and
	// forcing the secondary fallback while S was never rescanned.
	for i := 0; i < 5; i++ {
		e := graph.Edge{Src: graph.VertexID(600 + 2*i), Dst: graph.VertexID(601 + 2*i)}
		w.add(e)
		ent := findEntry(t, w, e)
		forceCandidate(w, ent)
		w.updateScore(ent, 10-0.2*float64(i), 0)
	}

	e, part, score, ok := w.popBest()
	if !ok {
		t.Fatal("popBest failed")
	}
	if e != s {
		t.Fatalf("popped %v, want the high-cached-score secondary entry %v", e, s)
	}
	if part != wantPart {
		t.Errorf("fallback committed stale partition %d, want fresh argmax %d", part, wantPart)
	}
	if math.Abs(score-wantScore) > 1e-9 {
		t.Errorf("fallback score %v, want fresh %v (stale cache held %v)", score, wantScore, staleScore)
	}
}

// TestSelectLazyUsesThetaSnapshot pins the Θ snapshot rule on the lazy
// selection path: demotion decisions across retries must all compare
// against Θ as of pass entry. Historically each retry read the live Θ,
// which the retry's own updateScore had just dragged down — so whether a
// decayed leader was demoted depended on how many leaders had been
// refreshed before it.
func TestSelectLazyUsesThetaSnapshot(t *testing.T) {
	w, _ := newTestWindow(2, 0.1, 64, false)
	// Balanced cache: vertex 1 replicated on p0, sizes equal, so edge
	// (1,50) freshly scores exactly 1.5 (pure replication term).
	w.commit(graph.Edge{Src: 1, Dst: 2}, 0)
	w.commit(graph.Edge{Src: 3, Dst: 4}, 1)

	// Seven cold secondary edges dilute Θ's denominator.
	for i := 0; i < 7; i++ {
		w.add(graph.Edge{Src: graph.VertexID(80 + 2*i), Dst: graph.VertexID(81 + 2*i)})
	}
	a, b, c := graph.Edge{Src: 60, Dst: 61}, graph.Edge{Src: 1, Dst: 50}, graph.Edge{Src: 70, Dst: 71}
	for _, e := range []graph.Edge{a, b, c} {
		w.add(e)
		forceCandidate(w, findEntry(t, w, e))
	}
	w.updateScore(findEntry(t, w, a), 10, 0)  // decays to 0
	w.updateScore(findEntry(t, w, b), 3, 0)   // decays to 1.5
	w.updateScore(findEntry(t, w, c), 2.0, 0) // decays to 0

	// Θ at pass entry: (10+3+2)/10 + 0.1 = 1.6.
	// Try 0 demotes A (fresh 0), dropping scoreSum to 5 — live Θ would
	// now be 0.6, under B's fresh 1.5. The snapshot keeps Θ at 1.6:
	// B (fresh 1.5 < runner-up 2.0) must still demote, leaving C as the
	// last candidate and the pop's winner.
	if got := w.theta(); math.Abs(got-1.6) > 1e-9 {
		t.Fatalf("setup: theta = %v, want 1.6", got)
	}
	e, _, _, ok := w.popBest()
	if !ok {
		t.Fatal("popBest failed")
	}
	if e != c {
		t.Errorf("popped %v, want %v: the decayed leader %v must demote against the Θ snapshot", e, c, b)
	}
	if w.demotions != 2 {
		t.Errorf("demotions = %d, want 2 (both decayed leaders)", w.demotions)
	}
	if entB := findEntry(t, w, b); entB.kind != inSecondary {
		t.Errorf("decayed leader %v kind = %d, want secondary", b, entB.kind)
	}
}

// exactScoreSum recomputes Σ cached scores over live entries.
func exactScoreSum(w *window) float64 {
	var sum float64
	for _, ent := range w.candidates {
		sum += ent.score
	}
	for _, ent := range w.secondary {
		sum += ent.score
	}
	return sum
}

// churnWindow runs a randomized add/pop/reassess workload that exercises
// every scoreSum update path.
func churnWindow(t *testing.T, w *window, sc *scorer, ops int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	randEdge := func() graph.Edge {
		u := graph.VertexID(rng.Intn(512))
		v := graph.VertexID(rng.Intn(512))
		return graph.Edge{Src: u, Dst: v}
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.55 || w.len() == 0:
			w.add(randEdge())
		case r < 0.9:
			e, p, _, ok := w.popBest()
			if !ok {
				t.Fatal("popBest failed on non-empty window")
			}
			newSrc, newDst := w.commit(e, p)
			if newSrc {
				w.reassess(e.Src)
			}
			if newDst && e.Dst != e.Src {
				w.reassess(e.Dst)
			}
		default:
			w.reassess(graph.VertexID(rng.Intn(512)))
		}
	}
}

// TestRescanRecomputesScoreSumExactly pins the drift fix: Θ is maintained
// by incremental += score−old updates, which accumulate one floating-
// point rounding each. After a long churn, a secondary rescan — which
// just refreshed every secondary score anyway — must leave scoreSum
// *exactly* equal to the sum over live entries, not within-epsilon.
func TestRescanRecomputesScoreSumExactly(t *testing.T) {
	w, sc := newTestWindow(8, 0.1, 32, false)
	churnWindow(t, w, sc, 20_000, 42)
	if w.len() == 0 {
		t.Fatal("churn drained the window")
	}
	w.rescanSecondary()
	if got, want := w.scoreSum, exactScoreSum(w); got != want {
		t.Errorf("scoreSum after rescan = %v, want exact Σ %v (drift %g)", got, want, got-want)
	}
}

// TestScoreSumTracksLiveEntriesUnderChurn is the drift invariant: across
// a long randomized workload the incrementally maintained scoreSum must
// stay within float tolerance of Σ live-entry scores (rescans re-anchor
// it exactly; between rescans only bounded rounding may accumulate).
func TestScoreSumTracksLiveEntriesUnderChurn(t *testing.T) {
	w, sc := newTestWindow(8, 0.1, 32, false)
	for round := 0; round < 40; round++ {
		churnWindow(t, w, sc, 500, int64(round))
		got, want := w.scoreSum, exactScoreSum(w)
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("round %d: scoreSum %v drifted from Σ %v", round, got, want)
		}
	}
}
