package core

import (
	"github.com/adwise-go/adwise/internal/graph"
)

// window implements the edge window with lazy traversal (§III-B): edges are
// split into a candidate set C of high-score edges and a secondary set Q.
// Per assignment only C is (re-)scored; Q is touched when C runs dry or
// when an incident vertex's replica set changes.
//
// The score threshold Θ = g_avg + ε tracks the mean cached score of window
// edges, so only better-than-average edges become candidates.
//
// # The Θ snapshot rule
//
// Every scoring pass — add classification, selectLazy, rescoreCandidates,
// rescanSecondary, reassess — snapshots Θ exactly once at pass entry and
// compares every promotion/demotion decision of the pass against that
// snapshot. updateScore mutates scoreSum mid-pass, but the drifting live
// Θ is never consulted until the next pass begins. This makes the
// decisions of a pass a pure function of its entry state (and hence
// independent of the order entries are evaluated in), which is both the
// correctness rule the serial code needs — historically selectLazy read
// Θ live per retry, so demotions depended on iteration order — and the
// precondition for sharding a pass across score workers.
//
// # Parallel scoring passes
//
// The heavy passes (rescoreCandidates, rescanSecondary, and the cached-
// score scans of lazy selection) run on a scorePool in two phases: a
// parallel compute phase scores a snapshot of the set into a results
// array (workers share nothing — per-worker scratches, an immutable
// scoreView, disjoint result slots), then a serial apply phase walks the
// snapshot in order, refreshing caches and promoting/demoting against
// the pass's Θ snapshot. Fixed shard boundaries plus shard-order argmax
// merges (see scorepool.go) make the assignment sequence edge-for-edge
// identical for any worker count.
//
// # Struct-of-arrays layout
//
// The per-entry data the hot loops touch lives in flat parallel arrays,
// not behind the *winEntry pointers: candScores[i] / secScores[i] mirror
// the cached score of candidates[i] / secondary[i] (the invariant every
// push/detach/updateScore maintains), and a pass's fresh results land in
// passScores / passParts slots indexed like the snapshot. The top-two
// candidate scan — the per-pop cost of lazy selection — is therefore a
// branch-light loop over a contiguous []float64 with no pointer chasing,
// and the same holds for the Θ re-sum and the apply phases.
//
// # Window-local vertex slots
//
// Every vertex with a live window edge owns a dense slot (slotOf /
// slotVertex), freed onto a free list and reused once its last window
// edge leaves. Incident lists are indexed by slot and carry each entry's
// other-endpoint slot inline, and a window entry records its two endpoint
// slots, so rescoring an entry never touches the slot map.
//
// Each slot mirrors its vertex's partial degree and replica words from
// the vertex cache, so scoring a window entry reads its endpoints and its
// neighbours from slot arrays and never probes the cache; only the
// endpoint of a fresh edge that has no slot still probes. The mirror is
// filled when the slot is acquired and re-synced by window.commit — the
// only way to commit while the window is live — for the committed
// endpoints that still hold a slot, or for every live slot when the
// cache evicted vertices. A direct scorer.commit would leave mirrors
// stale.
//
// # The clustering producers
//
// The clustering score needs |N(u)∪N(v)| and, per allowed partition, how
// many of those window neighbours are replicated there. Two exact
// producers compute them:
//
//   - the walk visits both endpoint lists, deduplicating the other slots
//     through the scratch's epoch stamps and scattering each distinct
//     neighbour's mirrored words;
//   - the maintained counts keep, per slot s, the number |D(s)| of its
//     distinct window neighbours and, per allowed partition, how many of
//     them are replicated there, updated through a slot-pair
//     multiplicity table as entries come and go and by mirror deltas at
//     commit. A score then combines the two endpoints' vectors:
//     |N| = |D(u)| + |D(v)| − |D(u)∩D(v)| − 2·[u~v], and the counts
//     subtract the overlap's bits and, when u~v, u's and v's bits. The
//     overlap is found by walking the shorter endpoint list.
//
// The counts cost a scatter per pair insert and per neighbour of a
// vertex whose replicas change, which only pays off when neighbourhoods
// are large. The window therefore measures the mean |N| per clustering
// evaluation over every period of engagePeriod commits: at |parts| or
// more it engages the counts, building them from the live lists in
// O(window); below |parts|/2 it drops them. The thresholds are not
// placed at a measured crossover of the two producers' costs: at
// |parts| = 32 the counts measured faster from a mean |N| well below
// |parts| (ARCHITECTURE.md). The rule reads only work counts, so it is
// deterministic, and both producers are exact, so which one serves never
// changes a score. Counts, mirrors and the pair table change only in the
// serial phases (insertScored, remove, commit, engage); scoring passes
// only read them.
//
// Memory: with w the largest window, at most 2·w slots are live, each
// mirroring ⌈k/64⌉ replica words and, while the counts are engaged,
// holding |parts| int32 counters, plus the pair table (at most one
// element per live entry). None of it is charged to the vertex-cache
// byte budget.

type setKind uint8

const (
	inCandidates setKind = iota
	inSecondary
	removed
)

type winEntry struct {
	edge  graph.Edge
	score float64 // cached max_p g(edge, p)
	part  int     // cached argmax partition (global id)
	kind  setKind
	pos   int // index within its set slice, for O(1) swap-removal
	// srcSlot / dstSlot are the window-local slots of edge.Src / edge.Dst
	// (equal for a self-loop), fixed while the entry is live.
	srcSlot, dstSlot int32
}

// incidence is one element of a slot's incident list: a live window entry
// and, inline, the slot of its other endpoint (the entry's own slot for a
// self-loop) — the only field the neighbourhood walk reads.
type incidence struct {
	ent   *winEntry
	other int32
}

type window struct {
	sc   *scorer
	pool *scorePool

	candidates []*winEntry
	secondary  []*winEntry
	// candScores[i] / secScores[i] cache candidates[i].score /
	// secondary[i].score — the struct-of-arrays mirror the scan kernels
	// run over. Maintained by pushCandidate/pushSecondary/detach/
	// updateScore; checkWindowInvariants asserts the sync.
	candScores []float64
	secScores  []float64
	// slotOf maps each vertex with a live window edge to its slot, and
	// slotVertex maps a slot back to its vertex; freeSlots holds the
	// slots whose last window edge left, reused before the table grows.
	// incident[s] lists the entries incident to slot s's vertex in
	// insertion order. remove unlinks the popped entry from its two
	// endpoint lists immediately — removal is the only source of dead
	// entries — so between pops the lists hold live entries only and
	// scoring passes never re-walk garbage.
	slotOf     map[graph.VertexID]int32
	slotVertex []graph.VertexID
	freeSlots  []int32
	incident   [][]incidence

	// Slot mirrors: mirDeg[s] and mirWords[s*wpe:(s+1)*wpe] are the
	// partial degree and replica words the cache holds for slotVertex[s]
	// (the invariant window.commit maintains for live slots). evicted is
	// the cache's eviction count at the last sync.
	wpe      int
	mirDeg   []int32
	mirWords []uint64
	evicted  int64
	// gain / loss are commit-time scratch: the replica bits a re-synced
	// slot gained and lost.
	gain, loss []uint64

	// Maintained neighbour counts, valid while engaged: nbrs[s] = |D(s)|,
	// the distinct other slots sharing a live entry with s, and
	// counts[s*nparts+i] how many of them are replicated on the allowed
	// partition parts[i]; pairs maps the pairKey of every linked slot pair
	// to its live-entry multiplicity. Freed slots hold zero counts.
	engaged bool
	nparts  int
	nbrs    []int32
	counts  []int32
	pairs   map[uint64]int32

	// The engagement rule's period state: commits into the current period
	// and the Σ|N| / score-op totals at its start.
	periodCommits      int
	periodN, periodOps int64

	scoreSum float64 // Σ cached scores over live entries (for Θ)
	epsilon  float64 // ε in Θ = g_avg + ε
	maxCand  int     // bound on |C|; DESIGN.md documents this engineering cap
	// eager disables lazy traversal: every window edge is a candidate and
	// all of them are re-scored on every pop — the O(w·|P|) baseline the
	// paper's §III-B improves on. Used by the lazy-vs-eager ablation.
	eager bool

	// Reusable pass buffers: the set snapshot walked by the apply phase
	// and the parallel compute phase's result slots (struct-of-arrays:
	// passScores[i] / passParts[i] are the fresh score and argmax
	// partition of entSnap[i]).
	entSnap    []*winEntry
	passScores []float64
	passParts  []int32

	// Reusable batched-refill buffers: result slots for the parallel
	// score phase of addBatch (indexed like the fresh-edge batch), the
	// intra-batch conflict marks, and the endpoint set that computes
	// them. Disjoint from the pass buffers above — a refill pass and a
	// rescore pass never overlap, but sharing slots would couple their
	// sizing invariants for no gain.
	refillScores   []float64
	refillParts    []int32
	refillConflict []bool
	refillSeen     map[graph.VertexID]struct{}

	// statistics
	promotions, demotions, reassessments, rescans int64
	ledger                                        ledger
}

// ledger is the window's per-layer work account, booked once per pass in
// serial code: score ops by phase, clustering evaluations by producer,
// count engagements, and the outcome of every lazy selection.
type ledger struct {
	ops                   PhaseScoreOps
	walkEvals, countEvals int64
	engagements           int64
	selections, firstTry  int64
	retries, fallbacks    int64
}

// fill copies the ledger into a run's stats.
func (l *ledger) fill(st *RunStats) {
	st.PhaseScoreOps = l.ops
	st.LazySelections, st.LazyFirstTryHits = l.selections, l.firstTry
	st.LazyRetries, st.LazyFallbacks = l.retries, l.fallbacks
	st.ClusterWalkEvals, st.ClusterCountEvals = l.walkEvals, l.countEvals
	st.CountEngagements = l.engagements
}

func newWindow(sc *scorer, pool *scorePool, epsilon float64, maxCand int, eager bool) *window {
	wpe := (sc.cache.K() + 63) / 64
	return &window{
		sc:      sc,
		pool:    pool,
		slotOf:  make(map[graph.VertexID]int32, 256),
		pairs:   make(map[uint64]int32),
		wpe:     wpe,
		evicted: sc.cache.EvictedVertices(),
		gain:    make([]uint64, wpe),
		loss:    make([]uint64, wpe),
		nparts:  len(sc.parts),
		epsilon: epsilon,
		maxCand: maxCand,
		eager:   eager,
	}
}

func (w *window) len() int { return len(w.candidates) + len(w.secondary) }

// theta returns the candidate threshold Θ = g_avg + ε over live entries.
// Passes snapshot it once at entry (see the Θ snapshot rule above).
func (w *window) theta() float64 {
	n := w.len()
	if n == 0 {
		return w.epsilon
	}
	return w.scoreSum/float64(n) + w.epsilon
}

// account books ops score evaluations of one pass to its phase counter
// and, with the clustering score on, to the producer that served the pass
// (the producer changes only at commit, never within a pass).
func (w *window) account(phase *int64, ops int) {
	*phase += int64(ops)
	if w.sc.clustering {
		if w.engaged {
			w.ledger.countEvals += int64(ops)
		} else {
			w.ledger.walkEvals += int64(ops)
		}
	}
}

// mirror returns slot s's mirrored replica words.
func (w *window) mirror(s int32) []uint64 {
	return w.mirWords[int(s)*w.wpe : int(s+1)*w.wpe]
}

// slotCounts returns slot s's maintained per-partition neighbour counts.
func (w *window) slotCounts(s int32) []int32 {
	return w.counts[int(s)*w.nparts : int(s+1)*w.nparts]
}

// endpoint returns the scoring input of vertex v with slot s: the slot
// mirror, or one cache probe when v has no slot (s < 0).
//
//adwise:zeroalloc
func (w *window) endpoint(v graph.VertexID, s int32) endpoint {
	if s >= 0 {
		return endpoint{deg: w.mirDeg[s], words: w.mirror(s)}
	}
	deg, words := w.sc.cache.LookupWords(v)
	return endpoint{deg: int32(deg), words: words}
}

// score evaluates e, whose endpoints hold slots su and sv (−1 for an
// endpoint without a live window edge), against view. The clustering
// inputs come from whichever producer is engaged; with the clustering
// score off neither runs. Read-only on the window, so safe for concurrent
// calls with distinct scratches during a pass.
//
//adwise:zeroalloc
func (w *window) score(view *scoreView, e graph.Edge, su, sv int32, scr *scoreScratch) (float64, int) {
	src := w.endpoint(e.Src, su)
	var dst endpoint
	if e.Dst != e.Src {
		dst = w.endpoint(e.Dst, sv)
	}
	n := 0
	if view.clustering {
		if w.engaged {
			n = w.countedNeighborhood(su, sv, scr)
		} else {
			n = w.walkNeighborhood(su, sv, scr)
		}
		scr.nSum += int64(n)
	}
	_, best, part := view.scoreEdge(src, dst, n, scr.cs, scr)
	return best, part
}

// scoreEntry scores a live window entry through its stored slots.
//
//adwise:zeroalloc
func (w *window) scoreEntry(view *scoreView, ent *winEntry, scr *scoreScratch) (float64, int) {
	return w.score(view, ent.edge, ent.srcSlot, ent.dstSlot, scr)
}

// scoreFresh scores an edge that is not (yet) a window entry, resolving
// its endpoints through the slot map.
//
//adwise:zeroalloc
func (w *window) scoreFresh(view *scoreView, e graph.Edge, scr *scoreScratch) (float64, int) {
	return w.score(view, e, w.slotOrNone(e.Src), w.slotOrNone(e.Dst), scr)
}

// slotOrNone returns v's slot, or −1 when v has no live window edge.
func (w *window) slotOrNone(v graph.VertexID) int32 {
	if s, ok := w.slotOf[v]; ok {
		return s
	}
	return -1
}

// walkNeighborhood is the walk producer: it visits the incident lists of
// su and sv (−1 for none), counts the distinct other slots, excluding the
// endpoints themselves, and accumulates their mirrored replica bits into
// scr.cs. It returns |N(u)∪N(v)|.
//
//adwise:zeroalloc
func (w *window) walkNeighborhood(su, sv int32, scr *scoreScratch) int {
	clear(scr.cs)
	if su < 0 && sv < 0 {
		return 0
	}
	stamps, epoch := scr.nextEpoch(len(w.slotVertex))
	// Both endpoints are stamped before either list is walked: they are
	// excluded from the neighbourhood.
	if su >= 0 {
		stamps[su] = epoch
	}
	if sv >= 0 {
		stamps[sv] = epoch
	}
	n := 0
	if su >= 0 {
		n += w.walkSlot(su, stamps, epoch, scr.cs)
	}
	if sv >= 0 && sv != su {
		n += w.walkSlot(sv, stamps, epoch, scr.cs)
	}
	return n
}

// walkSlot scatters the mirrored words of every other slot on s's list
// not yet stamped with epoch into cs, stamping each, and returns how many
// it found.
//
//adwise:zeroalloc
func (w *window) walkSlot(s int32, stamps []uint32, epoch uint32, cs []int32) int {
	n := 0
	for _, inc := range w.incident[s] {
		if stamps[inc.other] == epoch {
			continue
		}
		stamps[inc.other] = epoch
		n++
		scatterCount(cs, w.sc.partIdx, w.mirror(inc.other), 1)
	}
	return n
}

// countedNeighborhood is the maintained-counts producer: it combines the
// endpoints' count vectors into scr.cs and returns |N(u)∪N(v)| =
// |D(u)| + |D(v)| − |D(u)∩D(v)| − 2·[u~v], subtracting the same terms from
// the counts. The overlap and the adjacency are found by walking the
// shorter endpoint list, one pairs lookup per distinct neighbour.
// Requires engaged counts.
//
//adwise:zeroalloc
func (w *window) countedNeighborhood(su, sv int32, scr *scoreScratch) int {
	switch {
	case su < 0 && sv < 0:
		clear(scr.cs)
		return 0
	case sv < 0 || sv == su:
		copy(scr.cs, w.slotCounts(su))
		return int(w.nbrs[su])
	case su < 0:
		copy(scr.cs, w.slotCounts(sv))
		return int(w.nbrs[sv])
	}
	a, b := su, sv
	if len(w.incident[b]) < len(w.incident[a]) {
		a, b = b, a
	}
	ca, cb := w.slotCounts(a), w.slotCounts(b)
	cs := scr.cs[:len(ca)]
	for i := range cs {
		cs[i] = ca[i] + cb[i]
	}
	n := int(w.nbrs[a] + w.nbrs[b])
	stamps, epoch := scr.nextEpoch(len(w.slotVertex))
	stamps[a] = epoch
	adjacent := false
	for _, inc := range w.incident[a] {
		t := inc.other
		if stamps[t] == epoch {
			continue
		}
		stamps[t] = epoch
		if t == b {
			adjacent = true
			continue
		}
		if w.pairs[pairKey(b, t)] > 0 {
			n--
			scatterCount(cs, w.sc.partIdx, w.mirror(t), -1)
		}
	}
	if adjacent {
		n -= 2
		scatterCount(cs, w.sc.partIdx, w.mirror(a), -1)
		scatterCount(cs, w.sc.partIdx, w.mirror(b), -1)
	}
	return n
}

// acquireSlot returns v's slot, giving v a free slot (or a new one) if it
// has no live window edge, with its mirror filled from the cache. Serial
// insertion only — it mutates the slot table.
func (w *window) acquireSlot(v graph.VertexID) int32 {
	if s, ok := w.slotOf[v]; ok {
		return s
	}
	var s int32
	if n := len(w.freeSlots); n > 0 {
		s = w.freeSlots[n-1]
		w.freeSlots = w.freeSlots[:n-1]
		w.slotVertex[s] = v
	} else {
		s = int32(len(w.slotVertex))
		w.slotVertex = append(w.slotVertex, v)
		w.incident = append(w.incident, nil)
		w.mirDeg = append(w.mirDeg, 0)
		w.mirWords = append(w.mirWords, make([]uint64, w.wpe)...)
		if w.engaged {
			w.nbrs = append(w.nbrs, 0)
			w.counts = append(w.counts, make([]int32, w.nparts)...)
		}
	}
	w.slotOf[v] = s
	deg, words := w.sc.cache.LookupWords(v)
	w.mirDeg[s] = int32(deg)
	mir := w.mirror(s)
	clear(mir)
	copy(mir, words)
	return s
}

// unlink drops ent from slot s's incident list, keeping the order of the
// rest, and frees the slot when the list empties. Serial removal only —
// it mutates the slot table.
func (w *window) unlink(s int32, ent *winEntry) {
	list := w.incident[s]
	live := list[:0]
	for _, inc := range list {
		if inc.ent != ent {
			live = append(live, inc)
		}
	}
	clear(list[len(live):]) // drop the stale entry pointer
	if len(live) == 0 {
		delete(w.slotOf, w.slotVertex[s])
		w.freeSlots = append(w.freeSlots, s)
		live = nil // a hub's long list must not pin memory in a reused slot
	}
	w.incident[s] = live
}

// pairKey returns the pairs key of distinct slots s and t: the lower slot
// in the high half.
func pairKey(s, t int32) uint64 {
	if s > t {
		s, t = t, s
	}
	return uint64(s)<<32 | uint64(t)
}

// linkPair records one more live entry between distinct slots s and t.
// When it is their first, each becomes the other's distinct neighbour:
// its count and its mirrored bits join the other's counts.
func (w *window) linkPair(s, t int32) {
	key := pairKey(s, t)
	m := w.pairs[key] + 1
	w.pairs[key] = m
	if m > 1 {
		return
	}
	w.nbrs[s]++
	w.nbrs[t]++
	scatterCount(w.slotCounts(s), w.sc.partIdx, w.mirror(t), 1)
	scatterCount(w.slotCounts(t), w.sc.partIdx, w.mirror(s), 1)
}

// unlinkPair records one live entry fewer between distinct slots s and t,
// undoing linkPair when it was their last.
func (w *window) unlinkPair(s, t int32) {
	key := pairKey(s, t)
	if m := w.pairs[key] - 1; m > 0 {
		w.pairs[key] = m
		return
	}
	delete(w.pairs, key)
	w.nbrs[s]--
	w.nbrs[t]--
	scatterCount(w.slotCounts(s), w.sc.partIdx, w.mirror(t), -1)
	scatterCount(w.slotCounts(t), w.sc.partIdx, w.mirror(s), -1)
}

// engage builds the maintained counts and the pair table from the live
// incident lists — O(window) — and switches scoring to the counts
// producer. Serial only.
func (w *window) engage() {
	n := len(w.slotVertex)
	w.nbrs = resizeZeroed(w.nbrs, n)
	w.counts = resizeZeroed(w.counts, n*w.nparts)
	clear(w.pairs)
	w.engaged = true
	w.ledger.engagements++
	for s, list := range w.incident {
		for _, inc := range list {
			// Each entry sits in both endpoint lists; link it from the
			// lower slot only. Self-loops link nothing.
			if int32(s) < inc.other {
				w.linkPair(int32(s), inc.other)
			}
		}
	}
}

// drop switches scoring back to the walk producer. The counts go stale
// and are rebuilt by the next engage.
func (w *window) drop() { w.engaged = false }

// resizeZeroed returns buf resized to n elements, all zero.
func resizeZeroed(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// engagePeriod is the number of commits over which the window measures
// the mean |N| per clustering evaluation before it reconsiders which
// producer serves.
const engagePeriod = 256

// commit records the assignment of e to p through the scorer and keeps
// the window's mirrors exact: it re-syncs the committed endpoints that
// still hold a slot or, when the cache evicted vertices, every live slot.
// Every engagePeriod commits it applies the engagement rule. It is the
// only way to commit while the window is live. It reports which endpoints
// gained a new replica.
func (w *window) commit(e graph.Edge, p int) (newSrc, newDst bool) {
	newSrc, newDst = w.sc.commit(e, p)
	if ev := w.sc.cache.EvictedVertices(); ev != w.evicted {
		w.evicted = ev
		for s, list := range w.incident {
			if len(list) > 0 {
				w.sync(int32(s))
			}
		}
	} else {
		if s, ok := w.slotOf[e.Src]; ok {
			w.sync(s)
		}
		if s, ok := w.slotOf[e.Dst]; ok && e.Dst != e.Src {
			w.sync(s)
		}
	}
	if w.sc.clustering {
		if w.periodCommits++; w.periodCommits == engagePeriod {
			w.adapt()
		}
	}
	return newSrc, newDst
}

// sync re-reads slot s's degree and replica words from the cache. While
// the counts are engaged, the bits s gained or lost move into the counts
// of its distinct window neighbours.
func (w *window) sync(s int32) {
	deg, words := w.sc.cache.LookupWords(w.slotVertex[s])
	w.mirDeg[s] = int32(deg)
	mir := w.mirror(s)
	changed := false
	for i := range mir {
		var now uint64
		if words != nil {
			now = words[i]
		}
		w.gain[i], w.loss[i] = now&^mir[i], mir[i]&^now
		changed = changed || now != mir[i]
		mir[i] = now
	}
	if !changed || !w.engaged {
		return
	}
	stamps, epoch := w.sc.prime.nextEpoch(len(w.slotVertex))
	stamps[s] = epoch
	for _, inc := range w.incident[s] {
		t := inc.other
		if stamps[t] == epoch {
			continue
		}
		stamps[t] = epoch
		c := w.slotCounts(t)
		scatterCount(c, w.sc.partIdx, w.gain, 1)
		scatterCount(c, w.sc.partIdx, w.loss, -1)
	}
}

// adapt closes an engagement period: it engages the counts when the
// period's mean |N| per clustering evaluation reached |parts|, and drops
// them when it fell below |parts|/2. Σ|N| and the op count are summed
// over every scratch, so the decision is independent of the shard count.
func (w *window) adapt() {
	nSum, ops := w.sc.prime.nSum, w.sc.prime.scoreOps
	if w.pool != nil {
		for _, scr := range w.pool.scratch {
			nSum, ops = nSum+scr.nSum, ops+scr.scoreOps
		}
	}
	dn, dops := nSum-w.periodN, ops-w.periodOps
	w.periodN, w.periodOps, w.periodCommits = nSum, ops, 0
	parts := int64(w.nparts)
	switch {
	case !w.engaged && dops > 0 && dn >= parts*dops:
		w.engage()
	case w.engaged && 2*dn < parts*dops:
		w.drop()
	}
}

// add inserts a fresh stream edge into the window: score it once, classify
// against Θ (§III-B step 1). In eager mode everything is a candidate.
// This is the per-edge reference path; the refill hot path scores whole
// batches through addBatch and only classifies serially.
func (w *window) add(e graph.Edge) {
	view := w.sc.view()
	best, part := w.scoreFresh(&view, e, w.sc.prime)
	w.account(&w.ledger.ops.Refill, 1)
	w.insertScored(e, best, part)
}

// insertScored is the serial classify/insert half of an add: given the
// fresh score and argmax partition of e, classify against the live Θ
// (which drifts with every insert — classification is inherently
// order-dependent and stays serial) and link the entry into its set, the
// incident lists and, while engaged, the counts. Exactly the insertion
// semantics of add.
func (w *window) insertScored(e graph.Edge, best float64, part int) {
	su, sv := w.acquireSlot(e.Src), w.acquireSlot(e.Dst)
	ent := &winEntry{edge: e, score: best, part: part, srcSlot: su, dstSlot: sv}
	if w.eager || (best > w.theta() && len(w.candidates) < w.maxCand) {
		w.pushCandidate(ent)
	} else {
		w.pushSecondary(ent)
	}
	w.scoreSum += best
	w.incident[su] = append(w.incident[su], incidence{ent: ent, other: sv})
	if sv != su {
		w.incident[sv] = append(w.incident[sv], incidence{ent: ent, other: su})
		if w.engaged {
			w.linkPair(su, sv)
		}
	}
}

// addBatch inserts a refill batch of fresh stream edges, scoring the
// whole batch as one pool pass and then classifying serially in stream
// order — the two-phase form of calling add per edge, with edge-for-edge
// identical results.
//
// Why the batch scores are order-independent: during refill no assignment
// commits, so λ, the partition sizes, the max degree, and every replica
// set are frozen — one scoreView is exact for the entire batch, where the
// per-edge path minted an identical view per add. The only window state
// an insertion mutates that a later *score* could observe is the incident
// lists, slots and counts (the clustering score's neighbourhood).
// markRefillConflicts therefore flags every edge that shares an endpoint
// with an earlier batch edge; non-conflicting edges see exactly the
// pre-batch neighbourhood and score in the parallel phase, conflicting
// edges re-score serially at their insertion point, against the live
// window, precisely as add would have. With the clustering score off the
// window never feeds back into scores at all and the whole batch
// parallelises.
//
// Classification (Θ comparison, candidate cap) happens serially in
// stream order against the live, per-insert Θ — identical to add.
// It reports whether the score phase ran on the pool.
func (w *window) addBatch(edges []graph.Edge) bool {
	if len(edges) == 1 {
		w.add(edges[0])
		return false
	}
	w.account(&w.ledger.ops.Refill, len(edges))
	view := w.sc.view()
	conflict := w.markRefillConflicts(edges, view.clustering)

	if cap(w.refillScores) < len(edges) {
		w.refillScores = make([]float64, len(edges))
		w.refillParts = make([]int32, len(edges))
	}
	scores := w.refillScores[:len(edges)]
	parts := w.refillParts[:len(edges)]

	pooled := w.pool.forEach(len(edges), scoreGrainPerWorker, func(shard, lo, hi int) {
		scr := w.sc.prime
		if w.pool != nil {
			scr = w.pool.scratch[shard]
		}
		for i := lo; i < hi; i++ {
			if conflict != nil && conflict[i] {
				continue
			}
			best, part := w.scoreFresh(&view, edges[i], scr)
			scores[i], parts[i] = best, int32(part)
		}
	})

	for i, e := range edges {
		if conflict != nil && conflict[i] {
			// The edge shares an endpoint with an earlier batch edge: its
			// neighbourhood includes entries inserted moments ago, so
			// score it here, at its stream position, like add would.
			best, part := w.scoreFresh(&view, e, w.sc.prime)
			w.insertScored(e, best, part)
			continue
		}
		w.insertScored(e, scores[i], int(parts[i]))
	}
	return pooled
}

// markRefillConflicts returns the per-edge intra-batch conflict marks for
// addBatch: edges[i] is marked when an earlier batch edge shares one of
// its endpoints, meaning its window neighbourhood at insertion time
// differs from the pre-batch snapshot the parallel phase scores against.
// Returns nil — score everything in parallel — when the clustering score
// is off (window state never feeds back into scores) or no edge
// conflicts.
func (w *window) markRefillConflicts(edges []graph.Edge, clustering bool) []bool {
	if !clustering {
		return nil
	}
	if w.refillSeen == nil {
		w.refillSeen = make(map[graph.VertexID]struct{}, 2*len(edges))
	} else {
		clear(w.refillSeen)
	}
	w.refillConflict = append(w.refillConflict[:0], make([]bool, len(edges))...)
	any := false
	for i, e := range edges {
		_, src := w.refillSeen[e.Src]
		_, dst := w.refillSeen[e.Dst]
		if src || dst {
			w.refillConflict[i] = true
			any = true
		}
		w.refillSeen[e.Src] = struct{}{}
		w.refillSeen[e.Dst] = struct{}{}
	}
	if !any {
		return nil
	}
	return w.refillConflict
}

func (w *window) pushCandidate(ent *winEntry) {
	ent.kind = inCandidates
	ent.pos = len(w.candidates)
	w.candidates = append(w.candidates, ent)
	w.candScores = append(w.candScores, ent.score)
}

func (w *window) pushSecondary(ent *winEntry) {
	ent.kind = inSecondary
	ent.pos = len(w.secondary)
	w.secondary = append(w.secondary, ent)
	w.secScores = append(w.secScores, ent.score)
}

// detach removes ent from its current set slice and its parallel score
// slice (incident lists are untouched: a detached entry is still live,
// just changing sets).
func (w *window) detach(ent *winEntry) {
	var set *[]*winEntry
	var scores *[]float64
	switch ent.kind {
	case inCandidates:
		set, scores = &w.candidates, &w.candScores
	case inSecondary:
		set, scores = &w.secondary, &w.secScores
	default:
		return
	}
	s, sc := *set, *scores
	last := len(s) - 1
	s[ent.pos] = s[last]
	s[ent.pos].pos = ent.pos
	sc[ent.pos] = sc[last]
	*set = s[:last]
	*scores = sc[:last]
}

// remove detaches ent and marks it dead, unlinking it from its two
// endpoint incident lists on the spot (and freeing an endpoint slot whose
// list empties): removal is the only source of dead list entries, so
// eager compaction here keeps every later walk — including the sharded
// compute phases — free of removed entries. While engaged, the pair
// leaves the counts first, while both slots' mirrors are still live.
func (w *window) remove(ent *winEntry) {
	w.detach(ent)
	ent.kind = removed
	w.scoreSum -= ent.score
	if ent.dstSlot != ent.srcSlot && w.engaged {
		w.unlinkPair(ent.srcSlot, ent.dstSlot)
	}
	w.unlink(ent.srcSlot, ent)
	if ent.dstSlot != ent.srcSlot {
		w.unlink(ent.dstSlot, ent)
	}
}

// updateScore refreshes ent's cached score in place — both the entry
// field and its slot in the set's flat score slice — keeping scoreSum
// consistent.
func (w *window) updateScore(ent *winEntry, score float64, part int) {
	w.scoreSum += score - ent.score
	ent.score, ent.part = score, part
	switch ent.kind {
	case inCandidates:
		w.candScores[ent.pos] = score
	case inSecondary:
		w.secScores[ent.pos] = score
	}
}

// recomputeScoreSum replaces the incrementally maintained scoreSum with
// the exact Σ of live cached scores. The incremental form accumulates one
// floating-point rounding per updateScore over millions of operations;
// re-summing at every secondary rescan bounds the drift of Θ. The flat
// score slices make this a pure float64 reduction.
func (w *window) recomputeScoreSum() {
	var sum float64
	for _, s := range w.candScores {
		sum += s
	}
	for _, s := range w.secScores {
		sum += s
	}
	w.scoreSum = sum
}

// snapshotSet copies a set slice into the reusable pass snapshot buffer,
// sizing the flat result buffers to match. The apply phase walks this
// snapshot in order while promote/demote surgery perturbs the live slice.
func (w *window) snapshotSet(set []*winEntry) ([]*winEntry, []float64, []int32) {
	w.entSnap = append(w.entSnap[:0], set...)
	if cap(w.passScores) < len(set) {
		w.passScores = make([]float64, len(set))
		w.passParts = make([]int32, len(set))
	}
	w.passScores = w.passScores[:len(set)]
	w.passParts = w.passParts[:len(set)]
	return w.entSnap, w.passScores, w.passParts
}

// scoreAll is the parallel compute phase: score every snapshot entry
// against the pass view into its result slots (disjoint indices of the
// flat score/part arrays), booking the pass to phase. Workers read
// window state nobody mutates during the pass; the shard id doubles as
// the scratch id.
func (w *window) scoreAll(phase *int64, ents []*winEntry, view *scoreView, scores []float64, parts []int32) {
	w.account(phase, len(ents))
	w.pool.forEach(len(ents), scoreGrainPerWorker, func(shard, lo, hi int) {
		scr := w.sc.prime
		if w.pool != nil {
			scr = w.pool.scratch[shard]
		}
		for i := lo; i < hi; i++ {
			best, part := w.scoreEntry(view, ents[i], scr)
			scores[i], parts[i] = best, int32(part)
		}
	})
}

// popBest implements GETBESTASSIGNMENT's search (Alg. 1 line 9) with lazy
// traversal: only candidates are considered, falling back to a full
// secondary rescan when the candidate set is empty. The returned entry is
// removed from the window; the winning score g(ê,p̂) is reported for the
// (C1) bookkeeping of the adaptive window.
//
// Candidate selection itself is lazy too: cached scores order the
// candidates (a float comparison scan, no score computation) and only the
// argmax is re-scored. Because replica sets only grow and the balance term
// drifts slowly, a candidate's score rarely drops; when the fresh score
// does fall below the runner-up's cached score, the cache is updated and
// the selection retries, degenerating to a bounded number of re-scorings
// per pop — this is the "high-score edges in one window are likely to
// remain high-score edges in the subsequent window" property of §III-B.
func (w *window) popBest() (e graph.Edge, part int, score float64, ok bool) {
	if w.len() == 0 {
		return graph.Edge{}, 0, 0, false
	}
	if len(w.candidates) == 0 {
		w.rescanSecondary()
	}
	if w.eager {
		if len(w.candidates) > 0 {
			if best := w.rescoreCandidates(); best != nil {
				w.remove(best)
				return best.edge, best.part, best.score, true
			}
		}
	} else if len(w.candidates) > 0 {
		if best := w.selectLazy(); best != nil {
			w.remove(best)
			return best.edge, best.part, best.score, true
		}
	}
	if len(w.secondary) == 0 {
		// Everything was consumed by demotion-free candidate selection.
		if len(w.candidates) == 0 {
			return graph.Edge{}, 0, 0, false
		}
		return w.popFreshFrom(w.candidates, w.candScores)
	}
	// Everything scored at or below Θ: pop the best secondary entry. Its
	// cached score may predate arbitrary cache changes — e.g. when lazy
	// selection demoted every candidate, pre-existing secondary entries
	// were last scored whenever they entered the window — so the winner
	// is re-scored before the assignment is committed.
	return w.popFreshFrom(w.secondary, w.secScores)
}

// popFreshFrom picks the set's best entry by cached score (scanning the
// set's flat score slice), re-scores it against the current cache state,
// and removes it. The fresh score is what the caller commits: a cached
// (score, part) pair may be stale on every fallback path, and assigning a
// stale argmax partition would desynchronise the assignment from the
// scoring function.
func (w *window) popFreshFrom(set []*winEntry, scores []float64) (graph.Edge, int, float64, bool) {
	idx, _ := w.pool.topTwoCached(scores)
	best := set[idx]
	view := w.sc.view()
	fresh, part := w.scoreEntry(&view, best, w.sc.prime)
	w.account(&w.ledger.ops.PopFresh, 1)
	w.updateScore(best, fresh, part)
	w.remove(best)
	return best.edge, part, fresh, true
}

// selectLazy picks the winning candidate: scan cached scores for the two
// best entries, refresh only the leader, and accept it unless its fresh
// score fell below the runner-up — in which case retry with the updated
// cache (bounded). Returns nil only if demotions empty the candidate set.
// Θ and the scoring view are snapshotted once for the whole selection
// (the Θ snapshot rule): every retry's demotion decision compares against
// the same threshold, so the outcome does not depend on how many leaders
// were refreshed before a given entry was considered.
func (w *window) selectLazy() *winEntry {
	const maxTries = 4
	theta := w.theta()
	view := w.sc.view()
	w.ledger.selections++
	for try := 0; try < maxTries; try++ {
		if len(w.candidates) == 0 {
			return nil
		}
		if try > 0 {
			w.ledger.retries++
		}
		idx, second := w.pool.topTwoCached(w.candScores)
		best := w.candidates[idx]
		fresh, part := w.scoreEntry(&view, best, w.sc.prime)
		w.account(&w.ledger.ops.Leader, 1)
		w.updateScore(best, fresh, part)
		if fresh >= second || len(w.candidates) == 1 {
			if try == 0 {
				w.ledger.firstTry++
			}
			return best
		}
		// The leader's score decayed below the runner-up: demote it if it
		// also fell under Θ, then retry against the updated cache.
		if fresh <= theta {
			w.detach(best)
			w.pushSecondary(best)
			w.demotions++
		}
	}
	// Give up on laziness for this pop: full rescore, exact argmax.
	w.ledger.fallbacks++
	return w.rescoreCandidates()
}

// rescoreCandidates refreshes every candidate's score, demoting those that
// fell to or below the pass's Θ snapshot (lazy mode only), and returns the
// argmax (nil if all demoted). The compute phase runs on the score
// workers; the serial apply phase walks the snapshot in insertion-position
// order, so the argmax tie-break (first strictly-greater win) is fixed.
func (w *window) rescoreCandidates() *winEntry {
	theta := w.theta()
	view := w.sc.view()
	ents, scores, parts := w.snapshotSet(w.candidates)
	w.scoreAll(&w.ledger.ops.Rescore, ents, &view, scores, parts)

	var best *winEntry
	bestScore := 0.0
	for i, ent := range ents {
		w.updateScore(ent, scores[i], int(parts[i]))
		if !w.eager && scores[i] <= theta {
			// Demote: swap-remove from candidates, push to secondary.
			w.detach(ent)
			w.pushSecondary(ent)
			w.demotions++
			continue
		}
		if best == nil || scores[i] > bestScore {
			best, bestScore = ent, scores[i]
		}
	}
	return best
}

// rescanSecondary re-scores every secondary entry and promotes those whose
// fresh score exceeds the pass's Θ snapshot (§III-B step 2). Compute runs
// on the score workers; the apply phase promotes in snapshot order. Since
// the pass just refreshed every secondary score anyway, it finishes by
// re-summing scoreSum exactly, flushing accumulated floating-point drift.
func (w *window) rescanSecondary() {
	w.rescans++
	theta := w.theta()
	view := w.sc.view()
	ents, scores, parts := w.snapshotSet(w.secondary)
	w.scoreAll(&w.ledger.ops.Rescan, ents, &view, scores, parts)

	for i, ent := range ents {
		w.updateScore(ent, scores[i], int(parts[i]))
		if scores[i] > theta && len(w.candidates) < w.maxCand {
			w.detach(ent)
			w.pushCandidate(ent)
			w.promotions++
		}
	}
	w.recomputeScoreSum()
}

// reassess re-scores the secondary edges incident to v — called when v
// gained a new replica, which may have raised their replication or
// clustering scores past Θ (§III-B step 3). Incident lists are short, so
// the pass runs serially on the prime scratch; Θ and the view are
// snapshotted at entry like every other pass.
func (w *window) reassess(v graph.VertexID) {
	w.reassessments++
	theta := w.theta()
	view := w.sc.view()
	s, ok := w.slotOf[v]
	if !ok {
		return
	}
	// Promotion and score refreshes leave the incident lists untouched,
	// so the walk may range over v's list directly.
	for _, inc := range w.incident[s] {
		ent := inc.ent
		if ent.kind != inSecondary || len(w.candidates) >= w.maxCand {
			continue
		}
		score, part := w.scoreEntry(&view, ent, w.sc.prime)
		w.account(&w.ledger.ops.Reassess, 1)
		w.updateScore(ent, score, part)
		if score > theta {
			w.detach(ent)
			w.pushCandidate(ent)
			w.promotions++
		}
	}
}
