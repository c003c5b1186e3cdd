package core

import (
	"math"
	"testing"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
	"github.com/adwise-go/adwise/internal/vcache"
)

// fuzzVertices is the vertex id range of FuzzWindowOps: small, so slots
// are freed and reused within a few ops.
const fuzzVertices = 12

// FuzzWindowOps decodes bytes into a window configuration and a sequence
// of window ops over a small vertex range, checking after every op that
// the structural invariants (slot mirrors and maintained counts included)
// hold and that both clustering producers match the map-based oracle, and
// after draining that every added edge was popped exactly once, into an
// allowed partition.
//
// Layout: data[0] picks k ∈ [1, 96]; data[1] is a flag byte (bit 0
// eager, bit 1 clustering off, bit 2 floored vertex budget, bits 3-5 the
// candidate cap − 1); data[2] picks the first allowed partition and
// data[3] the spread. The rest is ops: b%6 == 0 or 1 adds the edge named
// by the next two bytes, 2 pops and commits (reassessing new replicas
// when lazy), 3 adds a run of 1 + next%4 edges with no check between
// them, 4 engages the maintained counts and 5 drops them.
func FuzzWindowOps(f *testing.F) {
	f.Add([]byte{7, 0, 2, 3, 0, 1, 2, 0, 2, 2, 3, 3, 1, 1, 2, 0, 4, 4, 2, 2})
	f.Add([]byte{95, 1, 40, 17, 3, 3, 1, 2, 3, 4, 5, 6, 2, 2, 0, 9, 9, 2})
	f.Add([]byte{32, 6 | 3<<3, 5, 31, 1, 0, 1, 1, 1, 2, 1, 2, 3, 2, 2, 2, 3, 0, 0, 5, 7, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := 1 + int(data[0])%96
		flags := data[1]
		eager := flags&1 != 0
		first := int(data[2]) % k
		parts := make([]int, 1+int(data[3])%k)
		for i := range parts {
			parts[i] = (first + i) % k
		}
		allowed := make(map[int]bool, len(parts))
		for _, p := range parts {
			allowed[p] = true
		}

		var budget int64
		if flags&4 != 0 {
			budget = 1
		}
		sc := newScorer(vcache.New(k, budget), parts, config{
			initialLambda: DefaultInitialLambda,
			lambdaMin:     DefaultLambdaMin,
			lambdaMax:     DefaultLambdaMax,
			balanceEps:    DefaultBalanceEps,
			clustering:    flags&2 == 0,
		})
		sc.totalEdges = int64(len(data))
		maxCand := 1 + int(flags>>3)%8
		if eager {
			maxCand = int(^uint(0) >> 1)
		}
		w := newWindow(sc, DefaultEpsilon, maxCand, eager)
		chk := newScoreScratch(len(parts))

		added := make(map[graph.Edge]int)
		ops := data[4:]
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		edge := func() graph.Edge {
			return graph.Edge{Src: graph.VertexID(next() % fuzzVertices), Dst: graph.VertexID(next() % fuzzVertices)}
		}
		pop := func() {
			e, p, _, ok := w.popBest()
			if !ok {
				t.Fatalf("popBest failed with %d edges in the window", w.len())
			}
			if !allowed[p] {
				t.Fatalf("edge %v assigned to partition %d outside the spread %v", e, p, parts)
			}
			if added[e] == 0 {
				t.Fatalf("popped %v more often than it was added", e)
			}
			added[e]--
			newSrc, newDst := w.commit(e, p)
			if !eager {
				if newSrc {
					w.reassess(e.Src)
				}
				if newDst && e.Dst != e.Src {
					w.reassess(e.Dst)
				}
			}
		}
		check := func() {
			checkWindowInvariants(t, w)
			checkProducersMatchOracle(t, w, chk, fuzzVertices+1)
		}

		for len(ops) > 0 {
			switch op := next(); op % 6 {
			case 0, 1:
				e := edge()
				added[e]++
				w.add(e)
			case 2:
				if w.len() > 0 {
					pop()
				}
			case 3:
				for range 1 + int(next())%4 {
					e := edge()
					added[e]++
					w.add(e)
				}
			case 4:
				w.engage()
			case 5:
				w.drop()
			}
			check()
		}
		for w.len() > 0 {
			pop()
			check()
		}
		for e, n := range added {
			if n != 0 {
				t.Fatalf("edge %v: %d adds never popped", e, n)
			}
		}
		if len(w.slotOf) != 0 || len(w.freeSlots) != len(w.slotVertex) {
			t.Fatalf("drained window keeps %d mapped slots, %d of %d free", len(w.slotOf), len(w.freeSlots), len(w.slotVertex))
		}
	})
}

// FuzzAdwiseRun decodes bytes into an ADWISE configuration and a short
// edge list, runs it, and checks the run-level contracts: every input
// edge is assigned exactly once (as a multiset) into the spread, the
// stats count every edge and split every score op by phase, and the
// assignment sequence is the same under an unlimited vertex budget as on
// the unbudgeted run.
//
// Layout: data[0] picks k ∈ [1, 32]; data[1] is a flag byte (bit 0
// eager, bit 1 clustering off, bit 2 a spread block instead of all
// partitions, bit 3 the adaptive window); data[2] picks the block's first
// partition and data[3] its size; data[4] picks the fixed window (1 +
// data[4]%64) or, adaptive, the latency preference (n·data[4]/64 ms for n
// edges, on a clock that advances 1 ms per edge drawn; the window grows
// from 1 to at most 64). The rest is up to 512 edges, two bytes each,
// over 32 vertex ids.
func FuzzAdwiseRun(f *testing.F) {
	edgeBytes := func(n int) []byte {
		b := make([]byte, 2*n)
		for i := range b {
			b[i] = byte(i*7 + i/5)
		}
		return b
	}
	// A fixed window of 64 over 20 edges: the first refill drains the
	// stream.
	f.Add(append([]byte{8, 0, 0, 0, 63}, edgeBytes(20)...))
	// The adaptive window on a block spread, with L just above n ms.
	f.Add(append([]byte{16, 4 | 8, 3, 5, 66}, edgeBytes(300)...))
	// Eager, clustering off, the adaptive window with L at 1.25·n ms.
	f.Add(append([]byte{5, 1 | 2 | 8, 0, 0, 80}, edgeBytes(120)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		k := 1 + int(data[0])%32
		flags := data[1]
		adaptive := flags&8 != 0
		parts := make([]int, k)
		for i := range parts {
			parts[i] = i
		}
		if flags&4 != 0 {
			first := int(data[2]) % k
			parts = parts[:1+int(data[3])%k]
			for i := range parts {
				parts[i] = (first + i) % k
			}
		}
		raw := data[5:]
		edges := make([]graph.Edge, min(len(raw)/2, 512))
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(raw[2*i] % 32), Dst: graph.VertexID(raw[2*i+1] % 32)}
		}
		n := int64(len(edges))

		run := func(budget int64) (*metrics.Assignment, RunStats) {
			t.Helper()
			clk := clock.NewFake(time.Unix(0, 0))
			opts := []Option{
				WithClock(clk),
				WithAllowedPartitions(parts),
				WithClusteringScore(flags&2 == 0),
				WithVertexBudget(budget),
			}
			if flags&1 != 0 {
				opts = append(opts, WithEagerTraversal())
			}
			if adaptive {
				opts = append(opts, WithMaxWindow(64),
					WithLatencyPreference(time.Duration(n*int64(data[4])/64)*time.Millisecond))
			} else {
				opts = append(opts, WithInitialWindow(1+int(data[4])%64), WithFixedWindow())
			}
			ad, err := New(k, opts...)
			if err != nil {
				t.Fatal(err)
			}
			d := &drawStream{inner: stream.FromEdges(edges), clk: clk}
			a, err := ad.Run(d.perEdge())
			if err != nil {
				t.Fatal(err)
			}
			return a, ad.Stats()
		}

		ref, st := run(0)
		allowed := make(map[int]bool, len(parts))
		for _, p := range parts {
			allowed[p] = true
		}
		left := make(map[graph.Edge]int, len(edges))
		for _, e := range edges {
			left[e]++
		}
		for i, e := range ref.Edges {
			if left[e] == 0 {
				t.Fatalf("assignment %d: edge %v assigned more often than it was streamed", i, e)
			}
			left[e]--
			if p := int(ref.Parts[i]); !allowed[p] {
				t.Fatalf("assignment %d: edge %v on partition %d outside the spread %v", i, e, p, parts)
			}
		}
		if ref.Len() != len(edges) {
			t.Fatalf("assigned %d of %d edges", ref.Len(), len(edges))
		}
		if st.Assignments != n {
			t.Fatalf("Assignments = %d, want %d", st.Assignments, n)
		}
		if got := st.PhaseScoreOps.Sum(); got != st.ScoreComputations {
			t.Fatalf("phase score ops %+v sum to %d, ScoreComputations %d", st.PhaseScoreOps, got, st.ScoreComputations)
		}

		a, _ := run(math.MaxInt64)
		requireSameAssignments(t, "unlimited budget", ref, a)
	})
}
