package core

import (
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
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
// when lazy), 3 adds a batch of 1 + next%4 edges, 4 engages the
// maintained counts and 5 drops them.
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
			totalEdges:    int64(len(data)),
		})
		maxCand := 1 + int(flags>>3)%8
		if eager {
			maxCand = int(^uint(0) >> 1)
		}
		w := newWindow(sc, newScorePool(nil, 1, len(parts)), DefaultEpsilon, maxCand, eager)
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
				batch := make([]graph.Edge, 1+int(next())%4)
				for i := range batch {
					batch[i] = edge()
					added[batch[i]]++
				}
				w.addBatch(batch)
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
