package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"slices"
	"time"

	"github.com/adwise-go/adwise/internal/engine"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
)

// pageRankIterations is the processing job whose simulated latency the
// benchmark reports, after the paper's total-latency experiments.
const pageRankIterations = 100

type checkResult struct {
	OK        bool     `json:"ok"`
	Errors    []string `json:"errors,omitempty"`
	RF        float64  `json:"rf"`
	Imbalance float64  `json:"imbalance"`
	MaxLoad   float64  `json:"max_load"`
	// Simulation of the processing job over the assignment.
	SimS         float64 `json:"process_sim_s,omitempty"`
	Supersteps   int     `json:"engine_supersteps,omitempty"`
	Messages     int64   `json:"engine_messages,omitempty"`
	EngineBuildS float64 `json:"engine_build_s,omitempty"`
	EngineStepS  float64 `json:"engine_step_s,omitempty"`
}

func (c *checkResult) fail(format string, args ...any) {
	if len(c.Errors) < 20 {
		c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
	}
}

// check verifies a written assignment against the workload's input, which
// it regenerates from the seed rather than reading back through the
// program's parser: the rows must be exactly the input edges — in stream
// order for single-edge strategies, in any order for a window strategy —
// every partition in [0,k), and every spotlight instance inside its own
// spread. It computes rf and balance itself and, with simulate, the
// processing job's simulated latency on the program's engine.
func check(m Meta, w Workload, path string, simulate bool) (checkResult, error) {
	res := checkResult{}
	g, err := w.gen(m.Seed, m.Index)
	if err != nil {
		return res, err
	}
	a, err := readAssignment(path, &res)
	if err != nil {
		return res, err
	}
	if a.K != m.K {
		res.fail("header k=%d, want %d", a.K, m.K)
	}
	if a.Len() != len(g.Edges) {
		res.fail("%d rows, want %d input edges", a.Len(), len(g.Edges))
	}
	if m.Window > 0 {
		// A window strategy commits edges in the order it picks them, so
		// its rows are a permutation of the stream, not the stream itself.
		if !sameEdges(a.Edges, g.Edges) {
			res.fail("rows are not a permutation of the input edges")
		}
	} else {
		for i := 0; i < min(a.Len(), len(g.Edges)); i++ {
			if a.Edges[i] != g.Edges[i] {
				res.fail("row %d is %v, input edge %d is %v", i+1, a.Edges[i], i, g.Edges[i])
				break
			}
		}
	}
	inRange := true
	for i, p := range a.Parts {
		if p < 0 || int(p) >= m.K {
			res.fail("row %d: partition %d outside [0,%d)", i+1, p, m.K)
			inRange = false
			break
		}
	}
	if m.Z > 1 && inRange {
		if err := checkSpreads(m, a, &res); err != nil {
			return res, err
		}
	}
	res.OK = len(res.Errors) == 0
	if res.OK {
		res.RF, res.Imbalance, res.MaxLoad = quality(a, g.NumV)
	}
	if simulate && res.OK {
		err = simulateProcessing(a, g.NumV, &res)
	}
	return res, err
}

// sameEdges reports whether a and b hold the same edges with the same
// multiplicities.
func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(es []graph.Edge) []uint64 {
		ks := make([]uint64, len(es))
		for i, e := range es {
			ks[i] = uint64(e.Src)<<32 | uint64(e.Dst)
		}
		slices.Sort(ks)
		return ks
	}
	return slices.Equal(key(a), key(b))
}

// checkSpreads checks that the rows of spotlight instance i, which the
// executor merges in instance order, all lie in the instance's spread.
func checkSpreads(m Meta, a *metrics.Assignment, res *checkResult) error {
	ranges, err := stream.PlanFile(m.Graph, m.Z)
	if err != nil {
		return err
	}
	row := 0
	for i, r := range ranges {
		lo := i * (m.K / m.Z)
		for n := int64(0); n < r.Edges && row < a.Len(); n++ {
			if off := (int(a.Parts[row]) - lo + m.K) % m.K; off >= m.Spread {
				res.fail("row %d: partition %d outside instance %d's spread [%d,%d)", row+1, a.Parts[row], i, lo, lo+m.Spread)
				return nil
			}
			row++
		}
	}
	return nil
}

// quality computes the replication factor (replicas per vertex with an
// edge), imbalance ((max-min)/max partition size) and maximum load (max
// size over the mean) of an assignment with k <= 64.
func quality(a *metrics.Assignment, numV int) (rf, imbalance, maxLoad float64) {
	masks := make([]uint64, numV)
	sizes := make([]int64, a.K)
	for i, e := range a.Edges {
		bit := uint64(1) << uint(a.Parts[i])
		masks[e.Src] |= bit
		masks[e.Dst] |= bit
		sizes[a.Parts[i]]++
	}
	var replicas, vertices int
	for _, mk := range masks {
		if mk != 0 {
			vertices++
			replicas += bits.OnesCount64(mk)
		}
	}
	lo, hi := sizes[0], sizes[0]
	for _, s := range sizes {
		lo, hi = min(lo, s), max(hi, s)
	}
	if vertices > 0 {
		rf = float64(replicas) / float64(vertices)
	}
	if hi > 0 {
		imbalance = float64(hi-lo) / float64(hi)
		maxLoad = float64(hi) / (float64(a.Len()) / float64(a.K))
	}
	return rf, imbalance, maxLoad
}

// readAssignment parses "src dst partition" rows after a "# k=K edges=N"
// header with its own parser, so a reader bug in the program cannot hide a
// writer bug.
func readAssignment(path string, res *checkResult) (*metrics.Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(bufio.NewReaderSize(f, 1<<20))
	if !sc.Scan() {
		return nil, fmt.Errorf("%s: empty assignment", path)
	}
	var k, n int
	if _, err := fmt.Sscanf(sc.Text(), "# k=%d edges=%d", &k, &n); err != nil {
		return nil, fmt.Errorf("%s: header %q: %v", path, sc.Text(), err)
	}
	a := metrics.NewAssignment(k, n)
	line := 1
	for sc.Scan() {
		line++
		fields := bytes.Fields(sc.Bytes())
		if len(fields) != 3 {
			res.fail("line %d: %d fields, want 3", line, len(fields))
			continue
		}
		var v [3]uint64
		for j, fld := range fields {
			var ok bool
			if v[j], ok = parseUint32(fld); !ok {
				res.fail("line %d: field %q is not a uint32", line, fld)
			}
		}
		a.Add(graph.Edge{Src: graph.VertexID(v[0]), Dst: graph.VertexID(v[1])}, int(int32(v[2])))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if a.Len() != n {
		res.fail("header says %d edges, file has %d rows", n, a.Len())
	}
	return a, nil
}

func parseUint32(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + uint64(c-'0'); v > 1<<32-1 {
			return 0, false
		}
	}
	return v, len(b) > 0
}

// simulateProcessing runs PageRank on the engine's cost model. The engine
// charges every PageRank superstep identically (the same local edges,
// vertex updates and replica syncs each iteration), so two supersteps are
// run, checked equal, and the job's latency is 100 of them — the same
// figure as running all 100, at a fiftieth of the cost.
func simulateProcessing(a *metrics.Assignment, numV int, res *checkResult) error {
	t := time.Now()
	e, err := engine.New(a, numV, engine.DefaultCostModel(), 0)
	if err != nil {
		return err
	}
	res.EngineBuildS = time.Since(t).Seconds()
	t = time.Now()
	_, rep, err := e.PageRank(2, 0.85)
	if err != nil {
		return err
	}
	res.EngineStepS = time.Since(t).Seconds() / 2
	if len(rep.PerStep) != 2 || rep.PerStep[0] != rep.PerStep[1] {
		return fmt.Errorf("engine PageRank supersteps cost %v; the 100-iteration figure assumes equal steps", rep.PerStep)
	}
	res.Supersteps = pageRankIterations
	res.SimS = (rep.PerStep[0] * pageRankIterations).Seconds()
	res.Messages = rep.Messages / 2 * pageRankIterations
	return nil
}
