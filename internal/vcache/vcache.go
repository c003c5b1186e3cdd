// Package vcache implements the vertex cache of the streaming-partitioning
// model (Figure 3 (iii) of the paper): for every vertex seen so far it
// maintains the replica set, the partial degree, and globally the per-
// partition edge counts that the balancing scores need.
//
// The cache is an open-addressing hash table with no per-vertex heap
// allocation: one flat word table holds, per slot, a head word packing the
// vertex key with its partial degree followed by the vertex's replica
// bitmap words. Per-edge scoring (LookupWords) therefore reads one run of
// adjacent words per vertex — no pointer chase, no map-bucket indirection,
// and on a table far larger than the core's cache usually one cache-line
// miss — which is what the streaming partitioners spend most of their time
// on.
//
// A Cache is owned by a single partitioner instance and is not safe for
// concurrent use; the parallel-loading model of the paper (§III-D) gives
// every partitioner its own cache.
package vcache

import (
	"fmt"
	"math"
	"unsafe"

	"github.com/adwise-go/adwise/internal/bitset"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/hashx"
)

// minSlots is the initial table size. Power of two so the probe sequence
// can mask instead of mod.
const minSlots = 1024

// tombstone marks a slot whose vertex was evicted under budget pressure.
// A probe chain may pass through freed slots, so eviction needs a third
// slot state that keeps chains intact: probes skip tombstones and only
// stop at a true empty.
const tombstone = int32(-1)

// The head word packs a 32-bit vertex key beside a 32-bit degree; this
// constant fails to compile if graph.VertexID outgrows its half.
const _ = uint32(^graph.VertexID(0))

// head returns the head word of a slot holding v at degree d.
func head(v graph.VertexID, d int32) uint64 { return uint64(v)<<32 | uint64(uint32(d)) }

// Byte-accounting model: the tracked footprint is the resident slot table
// — a head word and the replica words of every slot — and the
// per-partition size counters. Slice headers, the struct itself, and the
// transient old table freed by a rehash are not counted; the model is the
// steady-state footprint the budget is meant to bound.
const (
	bytesPerWord = int64(unsafe.Sizeof(uint64(0)))
	bytesPerSize = int64(unsafe.Sizeof(int64(0)))
)

// tableBytes returns the tracked footprint of a table with the given slot
// count, replica words per entry, and partition count.
func tableBytes(slots uint64, wpe, k int) int64 {
	return int64(slots)*int64(1+wpe)*bytesPerWord + int64(k)*bytesPerSize
}

// slotsFor returns the smallest power-of-two slot count (≥ minSlots) that
// holds the given vertex count below the 3/4 load-factor growth trigger.
func slotsFor(vertices int) uint64 {
	slots := uint64(minSlots)
	for vertices > 0 && uint64(vertices)*4 > slots*3 {
		slots *= 2
	}
	return slots
}

// VerticesHintForEdges derives a vertex-count table hint from an edge
// count — the same Remaining()/plan-derived figure the assignment sizing
// uses. An edge introduces at most two vertices, and the evaluation
// graphs average ≥ 8 incident edges per vertex, so edges/4 is a
// conservative table reservation: an undershoot costs at most a couple of
// doubling rehashes, an overshoot costs idle slots. A non-positive edge
// count hints 0, which leaves the table at its minimum.
func VerticesHintForEdges(edges int64) int {
	if edges <= 0 {
		return 0
	}
	const maxHint = int64(1) << 31
	hint := edges / 4
	if hint > maxHint {
		hint = maxHint
	}
	return int(hint)
}

// Cache is the vertex cache for k partitions under an optional byte
// budget. Without a budget the table doubles whenever it fills and holds
// exact state for every vertex ever seen. With one, an insertion that
// would outgrow the budget does not double the table; low-partial-degree
// vertices are evicted HEP-style instead — on power-law graphs the
// low-degree tail is the bulk of the vertices and the least valuable
// scoring state, so dropping it degrades replication quality gracefully
// while memory stays fixed.
//
// An evicted vertex is indistinguishable from one never seen: Degree
// reports 0, Replicas the empty set, LookupWords (0, nil), and the next
// Assign re-enters it at degree 1 with an empty replica set. Scoring
// kernels therefore treat a miss as "unseen" with no extra branch.
// Evicted vertices become tombstones (degree −1, replica words zeroed);
// insertions reuse the first tombstone on their probe chain, and when
// tombstones come to dominate the table (≥ 1/8 of slots at insert
// pressure) a same-size compaction rehash drops them to keep probe chains
// short.
//
// MaxDegree is a high-water mark over the whole run: it never decays, even
// when the vertex that set it is evicted, so the replication normaliser of
// Eq. 5 is monotone. Partition sizes and Assigned count edges, not vertex
// state, and are exact under eviction.
type Cache struct {
	k      int
	wpe    int   // replica words per entry: ceil(k/64)
	budget int64 // effective budget, at least the minimum table

	// Open-addressing table of 1+wpe words per slot: the head word
	// key<<32 | uint32(degree), then the slot's replica bitmap words.
	// The degree half is three-state: 0 empty, tombstone (-1) evicted,
	// > 0 live partial degree. Every insertion starts at 1, so an
	// all-zero head is a safe empty marker even for vertex id 0.
	// Tombstone slots always have zeroed replica words so reuse starts
	// clean. Slots are addressed by the offset of their head word.
	mask  uint64
	table []uint64
	live  int // slots with degree > 0
	dead  int // tombstone slots

	sizes    []int64
	assigned int64
	maxDeg   int32
	rehashes int
	evicted  int64
	peak     int64
}

// New returns an empty cache for k partitions whose table arrays stay
// within budgetBytes (see the byte-accounting model above). A non-positive
// budget is unlimited: the table doubles whenever it fills and never
// evicts. A positive budget is floored at the minimum table size — a
// budget too small for any table means "the smallest table, evicting
// hard". It panics if k < 1; the partition count is a static
// configuration error, not a runtime condition.
func New(k int, budgetBytes int64) *Cache {
	if k < 1 {
		panic(fmt.Sprintf("vcache: partition count must be >= 1, got %d", k))
	}
	wpe := (k + 63) / 64
	eff := budgetBytes
	if eff <= 0 {
		eff = math.MaxInt64
	}
	if floor := tableBytes(minSlots, wpe, k); eff < floor {
		eff = floor
	}
	c := &Cache{
		k:      k,
		wpe:    wpe,
		budget: eff,
		mask:   minSlots - 1,
		table:  make([]uint64, minSlots*(1+wpe)),
		sizes:  make([]int64, k),
	}
	c.peak = c.Bytes()
	return c
}

// K returns the partition count.
func (c *Cache) K() int { return c.k }

// Budget returns the effective byte budget: the configured budget floored
// at the minimum table, or math.MaxInt64 when unlimited.
func (c *Cache) Budget() int64 { return c.budget }

// find returns the head offset of v's slot, or -1 if v is not currently
// held. Probes skip tombstones and stop only at a true empty slot.
func (c *Cache) find(v graph.VertexID) int {
	stride := 1 + c.wpe
	i := hashx.SplitMix64(uint64(v)) & c.mask
	for {
		b := int(i) * stride
		h := c.table[b]
		d := int32(h)
		if d == 0 {
			return -1
		}
		if d > 0 && graph.VertexID(h>>32) == v {
			return b
		}
		i = (i + 1) & c.mask
	}
}

// bump finds or creates v's slot, increments its partial degree and
// returns the slot's head offset. New vertices reuse the first tombstone
// on their probe chain when there is one; only an insertion into a true
// empty counts against the 3/4 load factor (live + dead both lengthen
// probe chains) and can trigger makeRoom. Assignments among already-held
// vertices never reorganise the table.
func (c *Cache) bump(v graph.VertexID) int {
	stride := 1 + c.wpe
	for {
		i := hashx.SplitMix64(uint64(v)) & c.mask
		reuse := -1
		for {
			b := int(i) * stride
			h := c.table[b]
			d := int32(h)
			if d == 0 {
				if reuse >= 0 {
					c.table[reuse] = head(v, 1)
					c.live++
					c.dead--
					if c.maxDeg < 1 {
						c.maxDeg = 1
					}
					return reuse
				}
				if uint64(c.live+c.dead+1)*4 > (c.mask+1)*3 {
					c.makeRoom()
					break // re-probe in the reorganised table
				}
				c.table[b] = head(v, 1)
				c.live++
				if c.maxDeg < 1 {
					c.maxDeg = 1
				}
				return b
			}
			if d > 0 && graph.VertexID(h>>32) == v {
				d++
				c.table[b] = head(v, d)
				if d > c.maxDeg {
					c.maxDeg = d
				}
				return b
			}
			if d == tombstone && reuse < 0 {
				reuse = b
			}
			i = (i + 1) & c.mask
		}
	}
}

// makeRoom relieves insert pressure, in preference order: compact away
// tombstones when they hold ≥ 1/8 of the table (free room, no state
// loss), double when the doubled table still fits the budget, and
// otherwise evict. Without a budget there are no tombstones and doubling
// always fits, so the table simply grows. Eviction leaves tombstones in
// place rather than compacting eagerly: reinsertions reuse them in place,
// and if pressure recurs before they are reused the tombstone fraction is
// by then ≥ 1/8 (eviction frees at least 1/8 of the slots), so the
// compaction branch resolves it. bump therefore re-probes at most twice.
func (c *Cache) makeRoom() {
	slots := c.mask + 1
	if uint64(c.dead)*8 >= slots {
		c.rehashTo(slots)
		return
	}
	if tableBytes(slots*2, c.wpe, c.k) <= c.budget {
		c.rehashTo(slots * 2)
		return
	}
	c.evictLowDegree()
}

// evictLowDegree drops low-partial-degree vertices until at most half the
// slots are live, ramping the degree threshold 1, 2, 4, … so the fewest
// high-value vertices go (HEP's selection rule on the streaming partial
// degree). The sweep is in slot order and stops exactly at the target, so
// eviction is deterministic for a deterministic input stream. Evicted
// slots become tombstones with zeroed replica words.
func (c *Cache) evictLowDegree() {
	target := int((c.mask + 1) / 2)
	stride := 1 + c.wpe
	for t := int64(1); c.live > target; t *= 2 {
		for b := 0; b < len(c.table); b += stride {
			if d := int32(c.table[b]); d > 0 && int64(d) <= t {
				c.table[b] = head(0, tombstone)
				clear(c.table[b+1 : b+stride])
				c.live--
				c.dead++
				c.evicted++
				if c.live <= target {
					break
				}
			}
		}
	}
}

// rehashTo rebuilds the table at the given power-of-two slot count,
// dropping tombstones. Used for growth, Reserve, and same-size
// compaction. Replica views handed out earlier are invalidated; they are
// only specified to live until the next Assign.
func (c *Cache) rehashTo(slots uint64) {
	old, stride := c.table, 1+c.wpe
	c.rehashes++
	c.mask = slots - 1
	c.table = make([]uint64, int(slots)*stride)
	c.dead = 0
	for s := 0; s < len(old); s += stride {
		h := old[s]
		if int32(h) <= 0 {
			continue
		}
		i := hashx.SplitMix64(h>>32) & c.mask
		for c.table[int(i)*stride] != 0 {
			i = (i + 1) & c.mask
		}
		copy(c.table[int(i)*stride:], old[s:s+stride])
	}
	if bytes := tableBytes(slots, c.wpe, c.k); bytes > c.peak {
		c.peak = bytes
	}
}

// words returns the replica bitmap words of the slot whose head is at b,
// capped at the slot's end so no append can reach the next slot's head.
func (c *Cache) words(b int) []uint64 {
	end := b + 1 + c.wpe
	return c.table[b+1 : end : end]
}

// replicaView returns the replica bitmap of a live slot as a Set view
// into the table — a slice header, no allocation.
func (c *Cache) replicaView(b int) bitset.Set {
	return bitset.View(c.words(b), c.k)
}

// Replicas returns the recorded replica set of v: a view into the cache
// that must not be modified, valid until the next Assign, and empty
// (capacity 0) for vertices the cache does not hold. Eviction forgets
// replicas: a vertex that physically has a replica on p may miss it after
// being evicted, which costs a redundant replica if it is assigned there
// again, never a correctness violation.
func (c *Cache) Replicas(v graph.VertexID) bitset.Set {
	if b := c.find(v); b >= 0 {
		return c.replicaView(b)
	}
	return bitset.Set{}
}

// Degree returns the partial degree of v: the number of stream edges
// incident to v assigned since it was last inserted, 0 when not held.
// Streaming algorithms (DBH, HDRF, ADWISE) work with partial degrees
// because the full degree is unknown mid-stream.
func (c *Cache) Degree(v graph.VertexID) int {
	if b := c.find(v); b >= 0 {
		return int(int32(c.table[b]))
	}
	return 0
}

// LookupWords returns the partial degree and the raw replica bitmap words
// of v with a single probe, which reads one run of adjacent words — the
// hot path of per-edge scoring. Callers walk set bits with math/bits
// instead of probing per-partition Contains or paying a closure call per
// bit (Set.ForEach). The slice aliases the cache's table — read-only,
// valid until the next Assign — and its bits past k-1 are always clear.
// A miss returns (0, nil), and a nil word slice ranges zero times, so the
// word-scan inner loop treats an unheld vertex as "unseen" with no extra
// branch.
//
//adwise:zeroalloc
func (c *Cache) LookupWords(v graph.VertexID) (degree int, words []uint64) {
	if b := c.find(v); b >= 0 {
		return int(int32(c.table[b])), c.words(b)
	}
	return 0, nil
}

// MaxDegree returns the largest partial degree ever observed, at least 1
// so it can be used as a normaliser before any assignment. Eviction does
// not decay it.
func (c *Cache) MaxDegree() int {
	if c.maxDeg < 1 {
		return 1
	}
	return int(c.maxDeg)
}

// Assign records the assignment of edge (u,v) to partition p and returns
// which endpoints gained a new replica. It updates replica sets, partial
// degrees, and partition sizes; an evicted endpoint re-enters at degree 1
// with an empty replica set, so it always reports a new replica. Assign
// panics if p is out of range — an assignment outside [0,k) is a
// partitioner bug, not an input condition.
func (c *Cache) Assign(e graph.Edge, p int) (newSrc, newDst bool) {
	if p < 0 || p >= c.k {
		panic(fmt.Sprintf("vcache: assignment to partition %d outside [0,%d)", p, c.k))
	}
	// p's bit lives in word 1+p/64 past the slot's head.
	w, m := 1+p>>6, uint64(1)<<(uint(p)&63)

	x := c.bump(e.Src) + w
	if c.table[x]&m == 0 {
		c.table[x] |= m
		newSrc = true
	}
	if e.Dst != e.Src {
		// bump may reorganise the table, so the Dst slot is resolved
		// after the Src update is complete.
		x = c.bump(e.Dst) + w
		if c.table[x]&m == 0 {
			c.table[x] |= m
			newDst = true
		}
	}
	c.sizes[p]++
	c.assigned++
	return newSrc, newDst
}

// Assigned returns the number of edges assigned so far.
func (c *Cache) Assigned() int64 { return c.assigned }

// Vertices returns the number of vertices currently held (excludes
// evicted vertices).
func (c *Cache) Vertices() int { return c.live }

// Size returns the number of edges assigned to partition p.
func (c *Cache) Size(p int) int64 { return c.sizes[p] }

// MinMaxSizeOf returns the smallest and largest sizes among the given
// partitions — the balance extrema of the spread a partitioner assigns
// into. It panics on an empty partition list.
func (c *Cache) MinMaxSizeOf(parts []int) (min, max int64) {
	if len(parts) == 0 {
		panic("vcache: MinMaxSizeOf on empty partition list")
	}
	min, max = c.sizes[parts[0]], c.sizes[parts[0]]
	for _, p := range parts[1:] {
		s := c.sizes[p]
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	return min, max
}

// SumReplicas returns Σ_v |Rv| over held vertices: the numerator of the
// replication-degree objective (Eq. 1). Under eviction this undercounts
// the true replication of the assignment — use the exact metrics pass
// over the assignment for quality measurement.
func (c *Cache) SumReplicas() int64 {
	var sum int64
	for b := 0; b < len(c.table); b += 1 + c.wpe {
		if int32(c.table[b]) > 0 {
			sum += int64(c.replicaView(b).Count())
		}
	}
	return sum
}

// ReplicationDegree returns the mean replica count over held vertices
// (Eq. 1); zero when none are held.
func (c *Cache) ReplicationDegree() float64 {
	if c.live == 0 {
		return 0
	}
	return float64(c.SumReplicas()) / float64(c.live)
}

// ForEachVertex calls fn for every held vertex with its replica set (a
// view that must not be modified or retained). Iteration order is
// unspecified; evicted vertices are not visited.
func (c *Cache) ForEachVertex(fn func(v graph.VertexID, replicas bitset.Set)) {
	for b := 0; b < len(c.table); b += 1 + c.wpe {
		if h := c.table[b]; int32(h) > 0 {
			fn(graph.VertexID(h>>32), c.replicaView(b))
		}
	}
}

// Reserve grows the table upfront to hold the expected vertex count below
// the load-factor growth trigger, so a known-size stream (one whose length
// stream.Remaining or the segment plan reports) skips the doubling
// rehashes the minimum table would pay on the way up. The reservation is
// clamped to the largest table the budget allows. No-op when the table is
// already large enough; existing entries are rehashed into the larger
// table.
func (c *Cache) Reserve(vertices int) {
	slots := slotsFor(vertices)
	for slots > minSlots && tableBytes(slots, c.wpe, c.k) > c.budget {
		slots /= 2
	}
	if slots > c.mask+1 {
		c.rehashTo(slots)
	}
}

// Rehashes counts table rebuilds: growth doublings, Reserve rehashes, and
// post-eviction compactions.
func (c *Cache) Rehashes() int { return c.rehashes }

// Bytes returns the tracked byte footprint of the slot table (head and
// replica words) and the partition sizes — see the byte-accounting model
// above.
func (c *Cache) Bytes() int64 { return tableBytes(c.mask+1, c.wpe, c.k) }

// PeakBytes returns the largest footprint reached over the run. The
// budget invariant is PeakBytes() <= Budget().
func (c *Cache) PeakBytes() int64 { return c.peak }

// EvictedVertices counts vertices dropped under budget pressure (always 0
// without a budget). A vertex evicted and re-inserted n times counts n
// times.
func (c *Cache) EvictedVertices() int64 { return c.evicted }
