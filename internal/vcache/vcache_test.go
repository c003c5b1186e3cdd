package vcache

import (
	"testing"
	"testing/quick"

	"github.com/adwise-go/adwise/internal/bitset"
	"github.com/adwise-go/adwise/internal/graph"
)

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0, 0)
}

func TestAssignTracksReplicasAndDegrees(t *testing.T) {
	c := New(4, 0)
	e := graph.Edge{Src: 1, Dst: 2}

	newSrc, newDst := c.Assign(e, 0)
	if !newSrc || !newDst {
		t.Error("first assignment should create replicas for both endpoints")
	}
	newSrc, newDst = c.Assign(e, 0)
	if newSrc || newDst {
		t.Error("repeat assignment to same partition created replicas")
	}
	newSrc, newDst = c.Assign(e, 3)
	if !newSrc || !newDst {
		t.Error("assignment to a new partition should create replicas")
	}

	if got := c.Degree(1); got != 3 {
		t.Errorf("Degree(1) = %d, want 3", got)
	}
	if got := c.Replicas(1).Count(); got != 2 {
		t.Errorf("|Replicas(1)| = %d, want 2", got)
	}
	if r := c.Replicas(1); !r.Contains(0) || !r.Contains(3) || r.Contains(2) {
		t.Errorf("Replicas(1) = %v, want {0, 3}", r)
	}
	if got := c.Assigned(); got != 3 {
		t.Errorf("Assigned = %d, want 3", got)
	}
	if got := c.Size(0); got != 2 {
		t.Errorf("Size(0) = %d, want 2", got)
	}
	if got := c.Vertices(); got != 2 {
		t.Errorf("Vertices = %d, want 2", got)
	}
}

func TestAssignSelfLoop(t *testing.T) {
	c := New(2, 0)
	newSrc, newDst := c.Assign(graph.Edge{Src: 5, Dst: 5}, 1)
	if !newSrc {
		t.Error("self-loop src replica not created")
	}
	if newDst {
		t.Error("self-loop dst counted separately")
	}
	if got := c.Degree(5); got != 1 {
		t.Errorf("Degree(5) = %d, want 1 (self-loop counts once)", got)
	}
}

func TestAssignPanicsOutOfRange(t *testing.T) {
	c := New(2, 0)
	defer func() {
		if recover() == nil {
			t.Error("Assign to partition 2 of [0,2) did not panic")
		}
	}()
	c.Assign(graph.Edge{Src: 0, Dst: 1}, 2)
}

func TestUnknownVertexDefaults(t *testing.T) {
	c := New(3, 0)
	if got := c.Degree(9); got != 0 {
		t.Errorf("Degree(9) = %d, want 0", got)
	}
	if r := c.Replicas(9); !r.Empty() || r.Cap() != 0 {
		t.Errorf("Replicas(9) = %v with capacity %d, want the empty zero set", r, r.Cap())
	}
	if deg, words := c.LookupWords(9); deg != 0 || words != nil {
		t.Errorf("LookupWords(9) = (%d, %v), want (0, nil)", deg, words)
	}
	if got := c.MaxDegree(); got != 1 {
		t.Errorf("MaxDegree on empty cache = %d, want 1 (normaliser floor)", got)
	}
}

// TestSizesAndImbalance pins the per-partition edge counts and the
// extrema the balance terms derive the imbalance ι = (max−min)/max from,
// over all partitions and over a spread.
func TestSizesAndImbalance(t *testing.T) {
	c := New(3, 0)
	c.Assign(graph.Edge{Src: 0, Dst: 1}, 0)
	c.Assign(graph.Edge{Src: 1, Dst: 2}, 0)
	c.Assign(graph.Edge{Src: 2, Dst: 3}, 1)

	if c.Size(0) != 2 || c.Size(1) != 1 || c.Size(2) != 0 {
		t.Errorf("sizes = %d,%d,%d want 2,1,0", c.Size(0), c.Size(1), c.Size(2))
	}
	min, max := c.MinMaxSizeOf([]int{0, 1, 2})
	if min != 0 || max != 2 {
		t.Errorf("MinMaxSizeOf(all) = %d,%d want 0,2 (imbalance 1)", min, max)
	}
	min, max = c.MinMaxSizeOf([]int{0, 1})
	if min != 1 || max != 2 {
		t.Errorf("MinMaxSizeOf([0,1]) = %d,%d want 1,2", min, max)
	}
	min, max = c.MinMaxSizeOf([]int{2})
	if min != 0 || max != 0 {
		t.Errorf("MinMaxSizeOf([2]) = %d,%d want 0,0", min, max)
	}
}

func TestMinMaxSizeOfEmptyPanics(t *testing.T) {
	c := New(2, 0)
	defer func() {
		if recover() == nil {
			t.Error("MinMaxSizeOf(nil) did not panic")
		}
	}()
	c.MinMaxSizeOf(nil)
}

// TestImbalanceEmptyCache pins that an empty cache reports all-zero
// sizes, the max == 0 case the balance terms treat as no imbalance.
func TestImbalanceEmptyCache(t *testing.T) {
	c := New(4, 0)
	if min, max := c.MinMaxSizeOf([]int{0, 1, 2, 3}); min != 0 || max != 0 {
		t.Errorf("MinMaxSizeOf on empty cache = %d,%d, want 0,0", min, max)
	}
	if c.Assigned() != 0 {
		t.Errorf("Assigned on empty cache = %d, want 0", c.Assigned())
	}
}

func TestReplicationDegree(t *testing.T) {
	c := New(4, 0)
	if got := c.ReplicationDegree(); got != 0 {
		t.Errorf("ReplicationDegree on empty = %v", got)
	}
	// Vertex 0 on two partitions, vertices 1 and 2 on one each.
	c.Assign(graph.Edge{Src: 0, Dst: 1}, 0)
	c.Assign(graph.Edge{Src: 0, Dst: 2}, 1)
	if got := c.SumReplicas(); got != 4 {
		t.Errorf("SumReplicas = %d, want 4", got)
	}
	if got := c.ReplicationDegree(); got != 4.0/3.0 {
		t.Errorf("ReplicationDegree = %v, want 4/3", got)
	}
}

func TestForEachVertex(t *testing.T) {
	c := New(2, 0)
	c.Assign(graph.Edge{Src: 0, Dst: 1}, 0)
	c.Assign(graph.Edge{Src: 1, Dst: 2}, 1)
	seen := make(map[graph.VertexID]int)
	c.ForEachVertex(func(v graph.VertexID, replicas bitset.Set) {
		seen[v] = replicas.Count()
	})
	want := map[graph.VertexID]int{0: 1, 1: 2, 2: 1}
	if len(seen) != len(want) {
		t.Fatalf("visited %v, want %v", seen, want)
	}
	for v, c := range want {
		if seen[v] != c {
			t.Errorf("vertex %d: %d replicas, want %d", v, seen[v], c)
		}
	}
}

// Property: after any assignment sequence, Σ partition sizes == Assigned
// and MaxDegree >= every vertex degree.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(pairs []uint16) bool {
		const k = 8
		c := New(k, 0)
		for i, pr := range pairs {
			e := graph.Edge{
				Src: graph.VertexID(pr % 50),
				Dst: graph.VertexID((pr >> 8) % 50),
			}
			c.Assign(e, i%k)
		}
		var total int64
		for p := 0; p < k; p++ {
			total += c.Size(p)
		}
		if total != c.Assigned() {
			return false
		}
		okDeg := true
		c.ForEachVertex(func(v graph.VertexID, _ bitset.Set) {
			if c.Degree(v) > c.MaxDegree() {
				okDeg = false
			}
		})
		return okDeg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGrowthPreservesState drives the cache through several table growths
// (load factor crossings) and checks that degrees, replica sets, and
// aggregates survive the rehashes.
func TestGrowthPreservesState(t *testing.T) {
	const k, n = 8, 10_000
	c := New(k, 0)
	for i := 0; i < n; i++ {
		e := graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
		c.Assign(e, i%k)
	}
	if got := c.Vertices(); got != n+1 {
		t.Fatalf("Vertices = %d, want %d", got, n+1)
	}
	if got := c.Assigned(); got != n {
		t.Fatalf("Assigned = %d, want %d", got, n)
	}
	// Interior vertex i touches edges i-1 (partition (i-1)%k) and i (i%k).
	for _, v := range []int{1, 500, 1023, 1024, 5000, n - 1} {
		if got := c.Degree(graph.VertexID(v)); got != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, got)
		}
		if r := c.Replicas(graph.VertexID(v)); !r.Contains(v%k) || !r.Contains((v-1)%k) {
			t.Errorf("vertex %d lost a replica across growth", v)
		}
	}
	var total int64
	for p := 0; p < k; p++ {
		total += c.Size(p)
	}
	if total != c.Assigned() {
		t.Errorf("partition sizes sum to %d, want %d", total, c.Assigned())
	}
}

// TestLookupWordsMatchesLookup pins the word-level scan access against
// the Set-view lookups, Degree and Replicas: same degree, same set bits —
// including across table growth — and (0, nil) for unknown vertices. The
// k values straddle the one-word/multi-word bitmap boundary.
func TestLookupWordsMatchesLookup(t *testing.T) {
	for _, k := range []int{3, 64, 130} {
		c := New(k, 0)
		for i := 0; i < 5_000; i++ {
			e := graph.Edge{Src: graph.VertexID(i % 1500), Dst: graph.VertexID((i * 37) % 1500)}
			c.Assign(e, (i*13)%k)
		}
		if c.Rehashes() == 0 {
			t.Fatalf("k=%d: the table never grew", k)
		}
		for v := graph.VertexID(0); v < 1500; v++ {
			deg, set := c.Degree(v), c.Replicas(v)
			wDeg, words := c.LookupWords(v)
			if wDeg != deg {
				t.Fatalf("k=%d v=%d: LookupWords degree %d, Degree %d", k, v, wDeg, deg)
			}
			for p := 0; p < k; p++ {
				inWords := words[p>>6]&(1<<(uint(p)&63)) != 0
				if inWords != set.Contains(p) {
					t.Fatalf("k=%d v=%d p=%d: LookupWords bit %v, Replicas %v", k, v, p, inWords, set.Contains(p))
				}
			}
			// Padding bits past k-1 must be clear: the scan kernel walks
			// every set bit in the words, relying on partIdx only to drop
			// out-of-spread partitions, never out-of-range ones.
			for p := k; p < len(words)*64; p++ {
				if words[p>>6]&(1<<(uint(p)&63)) != 0 {
					t.Fatalf("k=%d v=%d: padding bit %d set", k, v, p)
				}
			}
		}
		if deg, words := c.LookupWords(graph.VertexID(1 << 30)); deg != 0 || words != nil {
			t.Fatalf("k=%d: unknown vertex returned (%d, %v), want (0, nil)", k, deg, words)
		}
	}
}
