package vcache

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"github.com/adwise-go/adwise/internal/bitset"
	"github.com/adwise-go/adwise/internal/graph"
)

// mapCache is the seed's vertex cache — map[VertexID]*entry with one heap
// allocation and pointer chase per vertex, no budget, no eviction. It is
// the reference model the open-addressing Cache is checked against and the
// baseline its benchmarks are measured against.
type mapEntry struct {
	replicas bitset.Set
	degree   int32
}

type mapCache struct {
	k        int
	entries  map[graph.VertexID]*mapEntry
	sizes    []int64
	assigned int64
	maxDeg   int32
}

func newMapCache(k int) *mapCache {
	return &mapCache{
		k:       k,
		entries: make(map[graph.VertexID]*mapEntry, 1024),
		sizes:   make([]int64, k),
	}
}

func (c *mapCache) entryFor(v graph.VertexID) *mapEntry {
	e, ok := c.entries[v]
	if !ok {
		e = &mapEntry{replicas: bitset.New(c.k)}
		c.entries[v] = e
	}
	return e
}

func (c *mapCache) Assign(e graph.Edge, p int) (newSrc, newDst bool) {
	se := c.entryFor(e.Src)
	newSrc = se.replicas.Add(p)
	se.degree++
	if se.degree > c.maxDeg {
		c.maxDeg = se.degree
	}
	if e.Dst != e.Src {
		de := c.entryFor(e.Dst)
		newDst = de.replicas.Add(p)
		de.degree++
		if de.degree > c.maxDeg {
			c.maxDeg = de.degree
		}
	}
	c.sizes[p]++
	c.assigned++
	return newSrc, newDst
}

func (c *mapCache) Lookup(v graph.VertexID) (int, bitset.Set) {
	if e, ok := c.entries[v]; ok {
		return int(e.degree), e.replicas
	}
	return 0, bitset.Set{}
}

func (c *mapCache) MaxDegree() int {
	if c.maxDeg < 1 {
		return 1
	}
	return int(c.maxDeg)
}

// checkVertex compares v's state in c against the model. exact demands
// equality, which holds when nothing was evicted. Otherwise c may hold
// less than the model — an evicted vertex re-enters with degree 1 and an
// empty replica set — but never more. Either way the word view must agree
// with Degree, be nil exactly for unheld vertices, and keep the padding
// bits past k-1 clear.
func checkVertex(c *Cache, m *mapCache, v graph.VertexID, exact bool) error {
	deg, words := c.LookupWords(v)
	mDeg, mReps := m.Lookup(v)
	if d := c.Degree(v); d != deg {
		return fmt.Errorf("v%d: Degree %d, LookupWords degree %d", v, d, deg)
	}
	if (words == nil) != (deg == 0) || (words != nil && len(words) != c.wpe) {
		return fmt.Errorf("v%d: degree %d with %d replica words", v, deg, len(words))
	}
	if (exact && deg != mDeg) || deg > mDeg {
		return fmt.Errorf("v%d: degree %d, model %d (exact=%v)", v, deg, mDeg, exact)
	}
	if r := c.k % 64; r != 0 && words != nil && words[len(words)-1]>>r != 0 {
		return fmt.Errorf("v%d: padding bits past k=%d set", v, c.k)
	}
	count := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			p := w*64 + bits.TrailingZeros64(word)
			if !mReps.Contains(p) {
				return fmt.Errorf("v%d: replica %d not in the model's %v", v, p, mReps)
			}
			count++
		}
	}
	if n := c.Replicas(v).Count(); n != count {
		return fmt.Errorf("v%d: %d replica bits, Replicas view has %d", v, count, n)
	}
	if exact && count != mReps.Count() {
		return fmt.Errorf("v%d: %d replicas, model %d", v, count, mReps.Count())
	}
	return nil
}

// checkAggregates compares the run-level state of c against the model.
// The edge count is exact at any budget, and the footprint never passes
// the budget; the vertex aggregates are exact only when nothing was
// evicted. Partition sizes are checked by the callers: the one an Assign
// touched after every Assign, all of them in a sweep.
func checkAggregates(c *Cache, m *mapCache, exact bool) error {
	if c.Assigned() != m.assigned {
		return fmt.Errorf("Assigned %d, model %d", c.Assigned(), m.assigned)
	}
	if c.PeakBytes() > c.Budget() || c.Bytes() > c.PeakBytes() {
		return fmt.Errorf("bytes %d, peak %d, budget %d", c.Bytes(), c.PeakBytes(), c.Budget())
	}
	if exact {
		if c.MaxDegree() != m.MaxDegree() || c.Vertices() != len(m.entries) || c.EvictedVertices() != 0 {
			return fmt.Errorf("MaxDegree %d, Vertices %d, evicted %d; model %d, %d",
				c.MaxDegree(), c.Vertices(), c.EvictedVertices(), m.MaxDegree(), len(m.entries))
		}
		return nil
	}
	if c.MaxDegree() > m.MaxDegree() || c.Vertices() > len(m.entries) {
		return fmt.Errorf("MaxDegree %d, Vertices %d exceed model %d, %d",
			c.MaxDegree(), c.Vertices(), m.MaxDegree(), len(m.entries))
	}
	return nil
}

// modelDriver applies the same assignments to a Cache and the model and
// checks them against each other after every Assign. Vertex ids are a
// small dense universe [0, dense) plus fresh ids handed out from
// freshBase upward, so sweeps know every id the model holds.
type modelDriver struct {
	c     *Cache
	m     *mapCache
	exact bool
	fresh graph.VertexID // fresh ids handed out so far
}

const (
	modelDense   = 97
	freshBase    = graph.VertexID(1 << 20)
	maxFuzzFresh = 1 << 14
)

func newModelDriver(k int, budget int64) *modelDriver {
	return &modelDriver{c: New(k, budget), m: newMapCache(k), exact: budget <= 0}
}

func (d *modelDriver) assign(e graph.Edge, p int) error {
	cs, cd := d.c.Assign(e, p)
	ms, md := d.m.Assign(e, p)
	if d.exact && (cs != ms || cd != md) {
		return fmt.Errorf("Assign(%v, %d) reported new (%v, %v), model (%v, %v)", e, p, cs, cd, ms, md)
	}
	// A vertex the cache did not hold re-enters with an empty replica
	// set, so a replica new to the model is new to the cache too.
	if (ms && !cs) || (md && !cd) {
		return fmt.Errorf("Assign(%v, %d) missed a replica new to the model", e, p)
	}
	for _, v := range []graph.VertexID{e.Src, e.Dst} {
		if err := checkVertex(d.c, d.m, v, d.exact); err != nil {
			return fmt.Errorf("after Assign(%v, %d): %w", e, p, err)
		}
	}
	if d.c.Size(p) != d.m.sizes[p] {
		return fmt.Errorf("after Assign(%v, %d): Size = %d, model %d", e, p, d.c.Size(p), d.m.sizes[p])
	}
	return checkAggregates(d.c, d.m, d.exact)
}

// freshRun assigns a chain of n edges over n+1 never-seen vertices.
func (d *modelDriver) freshRun(n, p int) error {
	for i := 0; i < n; i++ {
		e := graph.Edge{Src: freshBase + d.fresh, Dst: freshBase + d.fresh + 1}
		d.fresh++
		if err := d.assign(e, (p+i)%d.c.k); err != nil {
			return err
		}
	}
	d.fresh++ // the chain's last vertex is not reused as the next start
	return nil
}

// sweep checks every partition size and every vertex the model holds,
// plus one never seen.
func (d *modelDriver) sweep() error {
	for p := 0; p < d.c.k; p++ {
		if d.c.Size(p) != d.m.sizes[p] {
			return fmt.Errorf("Size(%d) = %d, model %d", p, d.c.Size(p), d.m.sizes[p])
		}
	}
	for v := graph.VertexID(0); v < modelDense; v++ {
		if err := checkVertex(d.c, d.m, v, d.exact); err != nil {
			return err
		}
	}
	for v := freshBase; v < freshBase+d.fresh; v++ {
		if err := checkVertex(d.c, d.m, v, d.exact); err != nil {
			return err
		}
	}
	if deg, words := d.c.LookupWords(freshBase - 1); deg != 0 || words != nil {
		return fmt.Errorf("never-seen vertex returned (%d, %v), want (0, nil)", deg, words)
	}
	held := 0
	var err error
	d.c.ForEachVertex(func(v graph.VertexID, replicas bitset.Set) {
		held++
		if err == nil && d.c.Degree(v) < 1 {
			err = fmt.Errorf("ForEachVertex visited v%d, which Degree reports unheld", v)
		}
	})
	if err == nil && held != d.c.Vertices() {
		err = fmt.Errorf("ForEachVertex visited %d vertices, Vertices() = %d", held, d.c.Vertices())
	}
	return err
}

// TestCacheMatchesModel is the quick-check of the cache against the
// seed's map-based model with no budget: after every Assign the new-replica
// flags, the endpoints' degrees and replica words, MaxDegree, Vertices,
// Assigned and the touched partition's size match exactly, and a sweep
// after every fresh run and at the end checks every vertex and partition
// size. Fresh runs push the table through growth; the k values straddle
// the one-word/multi-word bitmap boundary.
func TestCacheMatchesModel(t *testing.T) {
	for _, k := range []int{3, 64, 130} {
		f := func(ops []uint32) bool {
			d := newModelDriver(k, 0)
			for _, op := range ops {
				var err error
				if op&7 == 0 {
					err = d.freshRun(int(op>>3)%1024, int(op>>13))
					if err == nil {
						err = d.sweep()
					}
				} else {
					e := graph.Edge{Src: graph.VertexID(op>>3) % modelDense, Dst: graph.VertexID(op>>13) % modelDense}
					err = d.assign(e, int(op>>23)%k)
				}
				if err != nil {
					t.Logf("k=%d: %v", k, err)
					return false
				}
			}
			if err := d.sweep(); err != nil {
				t.Logf("k=%d: %v", k, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// FuzzCacheOps drives a cache and the model through a fuzzed op sequence
// under a fuzzed budget. With no budget the two must match exactly; under
// any budget the footprint stays within it, Assigned and the partition
// sizes stay exact, and each held vertex's degree and replica bits are at
// most the model's.
//
// Layout: data[0] picks k ∈ [1, 130]; data[1] picks the budget — 0
// (unlimited), 1 (the floored minimum table), or the footprint of a 2-,
// 4- or 8-fold minimum table, less one byte when bit 7 is set. The rest
// is ops: b%4 == 0 or 1 assigns the edge named by the next two bytes to
// the partition named by the third, 2 assigns a run of 64·(1 + next%16)
// fresh vertices (until maxFuzzFresh have been handed out), and 3
// reserves room for 64·next vertices.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{7, 0, 0, 1, 2, 0, 1, 3, 3, 2, 4, 0, 5, 5, 1})
	f.Add([]byte{63, 1, 2, 15, 0, 1, 2, 3, 2, 15, 1, 4, 4, 0, 2, 15})
	f.Add([]byte{129, 3 | 1<<7, 3, 40, 2, 15, 2, 15, 0, 9, 8, 7, 2, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%130
		wpe := (k + 63) / 64
		var budget int64
		switch sel := int(data[1]&0x7f) % 5; sel {
		case 0:
		case 1:
			budget = 1
		default:
			budget = tableBytes(minSlots<<(sel-1), wpe, k) - int64(data[1]>>7)
		}
		d := newModelDriver(k, budget)
		ops := data[2:]
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			var err error
			switch next() % 4 {
			case 0, 1:
				e := graph.Edge{Src: graph.VertexID(next() % modelDense), Dst: graph.VertexID(next() % modelDense)}
				err = d.assign(e, next()%k)
			case 2:
				n := 64 * (1 + next()%16)
				if d.fresh > maxFuzzFresh {
					break // keep the unlimited table and the model small
				}
				if err = d.freshRun(n, 0); err == nil {
					err = d.sweep()
				}
			case 3:
				rehashes := d.c.Rehashes()
				d.c.Reserve(64 * next())
				if err = checkAggregates(d.c, d.m, d.exact); err == nil && d.c.Rehashes() != rehashes {
					err = d.sweep()
				}
			}
			if err != nil {
				t.Fatalf("k=%d budget=%d: %v", k, budget, err)
			}
		}
		if err := d.sweep(); err != nil {
			t.Fatalf("k=%d budget=%d: %v", k, budget, err)
		}
	})
}
