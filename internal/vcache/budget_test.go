package vcache

import (
	"testing"
	"unsafe"

	"github.com/adwise-go/adwise/internal/bitset"
	"github.com/adwise-go/adwise/internal/graph"
)

// driveChain assigns a chain of n edges round-robin over k partitions —
// n+1 distinct vertices, enough to force growth or eviction.
func driveChain(c *Cache, k, n int) {
	for i := 0; i < n; i++ {
		c.Assign(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}, i%k)
	}
}

// TestReserveSkipsRehashes pins the capacity-hint contract: a fresh cache
// reserved for the stream's vertex count rehashes once, for the
// reservation, and never again on the way up, while an unreserved cache
// pays one doubling per load-factor crossing.
func TestReserveSkipsRehashes(t *testing.T) {
	const k, n = 4, 50_000
	reserved := New(k, 0)
	reserved.Reserve(n + 1)
	after := reserved.Rehashes()
	driveChain(reserved, k, n)
	if got := reserved.Rehashes(); got != after {
		t.Errorf("reserved cache rehashed %d more times, want 0", got-after)
	}
	unreserved := New(k, 0)
	driveChain(unreserved, k, n)
	if got := unreserved.Rehashes(); got <= after {
		t.Errorf("unreserved cache rehashed %d times over 50k inserts (reserve test is vacuous)", got)
	}
	if reserved.Vertices() != unreserved.Vertices() || reserved.Assigned() != unreserved.Assigned() {
		t.Error("reserved and unreserved caches disagree on aggregates")
	}
}

// TestReserveIsIdempotentAndMonotone pins Reserve semantics: shrinking
// reservations are no-ops, growth preserves state.
func TestReserveIsIdempotentAndMonotone(t *testing.T) {
	c := New(4, 0)
	driveChain(c, 4, 100)
	before := c.Bytes()
	c.Reserve(10) // smaller than the current table: no-op
	if c.Bytes() != before || c.Rehashes() != 0 {
		t.Error("Reserve below current size rehashed")
	}
	c.Reserve(100_000)
	if c.Bytes() <= before {
		t.Error("Reserve above current size did not grow")
	}
	if got := c.Degree(50); got != 2 {
		t.Errorf("Degree(50) = %d after Reserve, want 2", got)
	}
}

// TestBoundedHonorsBudget drives far more vertices than the budget can
// hold and checks the budget invariant: peak tracked bytes never exceed
// the effective budget, and evictions actually happened.
func TestBoundedHonorsBudget(t *testing.T) {
	const k, n = 8, 200_000
	budget := 4 * tableBytes(minSlots, 1, k) // room for a 4096-slot table
	c := New(k, budget)
	driveChain(c, k, n)
	if got := c.PeakBytes(); got > c.Budget() {
		t.Errorf("PeakBytes = %d exceeds budget %d", got, c.Budget())
	}
	if c.EvictedVertices() == 0 {
		t.Error("no evictions under a budget 50x smaller than the stream")
	}
	if c.Assigned() != n {
		t.Errorf("Assigned = %d, want %d (edge counts are exact under eviction)", c.Assigned(), n)
	}
	var total int64
	for p := 0; p < k; p++ {
		total += c.Size(p)
	}
	if total != n {
		t.Errorf("partition sizes sum to %d, want %d", total, n)
	}
	if got := uint64(c.Vertices()); got > (c.mask+1)*3/4 {
		t.Errorf("live vertices %d exceed load capacity of the budgeted table", got)
	}
}

// TestBytesMatchesResidentArrays checks the byte accounting against the
// arrays the cache holds, not against a formula: after growth, Reserve,
// eviction and same-size compaction, Bytes() is the size of the slot table
// plus the partition sizes, 8·len(table) + 8·k, at one and two replica
// words per slot.
func TestBytesMatchesResidentArrays(t *testing.T) {
	for _, k := range []int{32, 96} {
		check := func(c *Cache, when string) {
			t.Helper()
			resident := int64(len(c.table))*int64(unsafe.Sizeof(c.table[0])) +
				int64(len(c.sizes))*int64(unsafe.Sizeof(c.sizes[0]))
			if got := c.Bytes(); got != resident || len(c.sizes) != k {
				t.Errorf("k=%d after %s: Bytes() = %d, resident arrays %d (%d table words, %d sizes)",
					k, when, got, resident, len(c.table), len(c.sizes))
			}
		}
		grown := New(k, 0)
		check(grown, "New")
		driveChain(grown, k, 5_000)
		if grown.Rehashes() == 0 {
			t.Fatalf("k=%d: the table never grew", k)
		}
		check(grown, "growth")
		grown.Reserve(50_000)
		check(grown, "Reserve")

		bounded := New(k, 1)
		evicted, compacted := false, false
		for i := 0; !compacted && i < 1<<20; i++ {
			bytes, rehashes := bounded.Bytes(), bounded.Rehashes()
			bounded.Assign(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}, i%k)
			if !evicted && bounded.EvictedVertices() > 0 {
				evicted = true
				check(bounded, "eviction")
			}
			if evicted && bounded.Rehashes() > rehashes && bounded.Bytes() == bytes {
				compacted = true
				check(bounded, "same-size compaction")
			}
		}
		if !compacted {
			t.Fatalf("k=%d: no same-size compaction at the floored budget", k)
		}
	}
}

// TestBoundedBudgetFloor pins that an absurdly small budget still yields
// a working minimum table rather than a panic or a zero-slot table.
func TestBoundedBudgetFloor(t *testing.T) {
	c := New(4, 1)
	if c.Budget() < tableBytes(minSlots, 1, 4) {
		t.Errorf("Budget = %d below minimum table", c.Budget())
	}
	driveChain(c, 4, 5_000)
	if c.Assigned() != 5_000 {
		t.Errorf("Assigned = %d, want 5000", c.Assigned())
	}
	if c.PeakBytes() > c.Budget() {
		t.Errorf("PeakBytes %d exceeds effective budget %d", c.PeakBytes(), c.Budget())
	}
}

// TestBoundedMaxDegreeHighWater pins the maxDeg staleness contract: the
// high-water mark survives eviction of the vertex that set it.
func TestBoundedMaxDegreeHighWater(t *testing.T) {
	const k = 4
	c := New(k, 1) // minimum table: evicts hard
	// Vertex 0 reaches degree 100 (self-loops bump only the src).
	for i := 0; i < 100; i++ {
		c.Assign(graph.Edge{Src: 0, Dst: 0}, i%k)
	}
	if got := c.MaxDegree(); got != 100 {
		t.Fatalf("MaxDegree = %d, want 100", got)
	}
	// The eviction ramp drops the lowest degrees first, so a flood of
	// degree-1 vertices never touches vertex 0 — flood with degree-128
	// vertices (each fully pumped before the next insert) so the ramp
	// must pass vertex 0's degree to find room.
	for v := graph.VertexID(10_000); c.Degree(0) > 0 && v < 40_000; v++ {
		for j := 0; j < 128; j++ {
			c.Assign(graph.Edge{Src: v, Dst: v}, int(v)%k)
		}
	}
	if c.Degree(0) > 0 {
		t.Fatal("vertex 0 never evicted under minimum budget (flood too small?)")
	}
	if got := c.MaxDegree(); got < 100 {
		t.Errorf("MaxDegree decayed to %d after evicting its vertex, want >= 100", got)
	}
	// An evicted vertex re-enters as degree 1 with an empty replica set.
	newSrc, _ := c.Assign(graph.Edge{Src: 0, Dst: 1}, 0)
	if !newSrc {
		t.Error("re-inserted evicted vertex did not report a new replica")
	}
	if got := c.Degree(0); got != 1 {
		t.Errorf("Degree(0) = %d after re-insert, want 1", got)
	}
}

// TestBoundedMissAsUnseen pins the miss contract on evicted vertices:
// every read accessor reports exactly what it reports for a vertex never
// seen, including LookupWords' (0, nil).
func TestBoundedMissAsUnseen(t *testing.T) {
	const k = 4
	c := New(k, 1)
	c.Assign(graph.Edge{Src: 7, Dst: 8}, 2)
	for i := 0; c.Degree(7) > 0 && i < 1<<20; i++ {
		c.Assign(graph.Edge{Src: graph.VertexID(100 + 2*i), Dst: graph.VertexID(101 + 2*i)}, i%k)
	}
	if c.Degree(7) > 0 {
		t.Fatal("vertex 7 never evicted")
	}
	if deg, words := c.LookupWords(7); deg != 0 || words != nil {
		t.Errorf("LookupWords(evicted) = (%d, %v), want (0, nil)", deg, words)
	}
	if r := c.Replicas(7); !r.Empty() || r.Cap() != 0 {
		t.Errorf("Replicas(evicted) = %v with capacity %d, want the empty zero set", r, r.Cap())
	}
}

// TestBoundedTombstoneProbing exercises the three-state probe logic
// directly: a probe chain running through tombstones must still find live
// vertices past them, and tombstone slots must be reused cleanly.
func TestBoundedTombstoneProbing(t *testing.T) {
	const k = 4
	c := New(k, 1)
	// Fill past the eviction threshold several times over, interleaving
	// lookups of a long-chain survivor set.
	survivors := make(map[graph.VertexID]int)
	for i := 0; i < 40_000; i++ {
		v := graph.VertexID(i)
		c.Assign(graph.Edge{Src: v, Dst: v + 1}, int(v)%k)
	}
	// Whatever is held now must agree between ForEachVertex and find-based
	// accessors — a probe bug would lose vertices behind tombstones.
	c.ForEachVertex(func(v graph.VertexID, replicas bitset.Set) {
		survivors[v] = replicas.Count()
	})
	if len(survivors) != c.Vertices() {
		t.Fatalf("ForEachVertex visited %d vertices, Vertices() = %d", len(survivors), c.Vertices())
	}
	for v, rc := range survivors {
		if c.Degree(v) < 1 {
			t.Fatalf("vertex %d visited by ForEachVertex but not held (probe lost it behind a tombstone)", v)
		}
		if got := c.Replicas(v).Count(); got != rc {
			t.Fatalf("vertex %d: |Replicas| %d != ForEachVertex view %d", v, got, rc)
		}
	}
	// Live slots + tombstones never exceed the table, and the load-factor
	// invariant that bounds probe chains holds.
	if uint64(c.live+c.dead)*4 > (c.mask+1)*3+4 {
		t.Errorf("occupied slots %d exceed 3/4 of %d-slot table", c.live+c.dead, c.mask+1)
	}
}

// TestBoundedReserveClampsToBudget pins that a reservation larger than
// the budget allows is clamped, not honoured.
func TestBoundedReserveClampsToBudget(t *testing.T) {
	const k = 4
	budget := 4 * tableBytes(minSlots, 1, k)
	c := New(k, budget)
	c.Reserve(1 << 20)
	if c.Bytes() > c.Budget() {
		t.Errorf("Reserve grew table to %d bytes past budget %d", c.Bytes(), c.Budget())
	}
	if c.PeakBytes() > c.Budget() {
		t.Errorf("PeakBytes %d past budget %d after Reserve", c.PeakBytes(), c.Budget())
	}
}

func TestVerticesHintForEdges(t *testing.T) {
	cases := []struct {
		edges int64
		want  int
	}{
		{-1, 0}, {0, 0}, {4, 1}, {1000, 250}, {int64(1) << 40, 1 << 31},
	}
	for _, tc := range cases {
		if got := VerticesHintForEdges(tc.edges); got != tc.want {
			t.Errorf("VerticesHintForEdges(%d) = %d, want %d", tc.edges, got, tc.want)
		}
	}
}

func TestParseFormatBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"", 0}, {"0", 0}, {"4096", 4096}, {"1k", 1 << 10}, {"1KiB", 1 << 10},
		{"64MiB", 64 << 20}, {"64mb", 64 << 20}, {"1.5g", 3 << 29}, {"2TiB", 2 << 40},
		{" 512 MiB ", 512 << 20}, {"8388607TiB", (1<<23 - 1) << 40},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{
		"x", "-1", "12qb", "MiB",
		// Non-finite and int64-overflowing sizes must not wrap to a
		// non-positive value, which would mean "unlimited".
		"nan", "NaN", "inf", "+Inf", "-inf", "Infinity", "infGiB",
		"1e20", "1e19b", "9223372036854775808", "8388608TiB", "1e400",
	} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) did not error", bad)
		}
	}
	for n, want := range map[int64]string{
		512:      "512B",
		1 << 10:  "1.0KiB",
		64 << 20: "64.0MiB",
		3 << 29:  "1.5GiB",
		2 << 40:  "2.0TiB",
		16 << 20: "16.0MiB",
	} {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
