package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
)

// Workload fixes everything a run of one workload depends on except the
// seed. Changing a field changes params, so cached inputs are regenerated.
type Workload struct {
	Name     string
	K, Z     int
	Strategy string
	// Window is ADWISE's fixed window (0 for single-edge strategies).
	Window int
	// ScoreWorkers is ADWISE's logical scoring shard count (0 = auto).
	// Any count yields the same assignment.
	ScoreWorkers int
	// Graphs is how many input graphs a partition leg runs through, one
	// fresh process each; Graph names their files, a .bin suffix selecting
	// the binary format and anything else the text edge list.
	Graphs int
	Graph  string
	// Queries is the size of the seeded query pool the lookup client
	// cycles through.
	Queries int
	// Batches is the closed loop's request count and Reloads the reloads
	// fired beside it. They shape the load, not the inputs, so they are
	// not part of params.
	Batches, Reloads int

	gen    func(seed uint64, i int) (*graph.Graph, error)
	params string
}

// Spread is the partitions each spotlight instance fills.
func (w Workload) Spread() int { return w.K / w.Z }

const (
	zipfGraphs   = 16
	zipfEdges    = 10_000
	zipfExponent = 1.3
	rmatScale    = 20
	rmatEdges    = 4_000_000
)

var workloads = map[string]Workload{
	"zipf-adwise": {
		Name: "zipf-adwise", K: 32, Z: 1, Strategy: "adwise", Window: 1024,
		// One shard: on two cores the auto setting's two shards run a pass
		// either fast or about 1.6 times slower, chosen afresh by each
		// process, while one shard is steady. The traced run measures the
		// auto setting as the scorepool layer.
		ScoreWorkers: 1,
		// Sixteen small graphs rather than one large one: ADWISE's time on
		// one Zipf graph swings by ±20% with the seed and the swing grows
		// with the graph, so a batch of independent graphs averages it out.
		Graphs: zipfGraphs, Graph: "graph-%d.bin", Queries: 1 << 16,
		Batches: 4000, Reloads: 3,
		gen: func(seed uint64, i int) (*graph.Graph, error) {
			return gen.Zipf(zipfEdges/4, zipfEdges, zipfExponent, seed*zipfGraphs+uint64(i))
		},
		params: fmt.Sprintf("zipf%dx%d-s%g-k32-w1024-sw1-q65536", zipfGraphs, zipfEdges, zipfExponent),
	},
	"rmat-hdrf": {
		Name: "rmat-hdrf", K: 32, Z: 2, Strategy: "hdrf",
		Graphs: 1, Graph: "graph-%d.txt", Queries: 1 << 16,
		Batches: 16000, Reloads: 2,
		gen: func(seed uint64, _ int) (*graph.Graph, error) {
			return gen.RMAT(rmatScale, rmatEdges, 0.57, 0.19, 0.19, seed)
		},
		params: fmt.Sprintf("rmat-n%d-m%d-k32-z2-q65536", rmatScale, rmatEdges),
	},
}

func lookupWorkload(name string) (Workload, error) {
	w, ok := workloads[name]
	if !ok {
		return w, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// Meta describes a prepared input directory.
type Meta struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Params   string   `json:"params"`
	Dir      string   `json:"dir"`
	Edges    int      `json:"edges_per_graph"`
	K        int      `json:"k"`
	Z        int      `json:"z"`
	Spread   int      `json:"spread"`
	Strategy string   `json:"strategy"`
	Window   int      `json:"window"`
	Workers  int      `json:"score_workers"`
	Graphs   []string `json:"graphs"`
	Serve    string   `json:"serve_assignment"`
	Queries  string   `json:"queries"`
	// Index and Graph select the graph one pass runs over (prog -graph).
	Index int    `json:"-"`
	Graph string `json:"-"`
}

// splitmix is SplitMix64: the seeded rule behind the served assignment and
// the query sample, kept here so no partitioner change can move them.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// servedPart is the fixed seeded rule that places row i of the served
// assignment. It depends on the row, not the edge, so duplicate edges get
// different partitions and the lookup check exercises last-write-wins.
func servedPart(seed uint64, i, k int) int {
	return int(splitmix(seed*0x100000001b3^uint64(i)) % uint64(k))
}

// Query is one lookup the client sends and the partition it must get back.
type Query struct {
	Edge graph.Edge
	Want int32
}

// sampleQueries draws n rows of the served assignment and resolves each
// to its expected answer.
func sampleQueries(a *metrics.Assignment, n int, seed uint64) []Query {
	qs := make([]Query, n)
	for j := range qs {
		qs[j].Edge = a.Edges[splitmix(seed^0xa5a5a5a5^uint64(j)<<20)%uint64(a.Len())]
	}
	expectLastWriteWins(a, qs)
	return qs
}

// expectLastWriteWins sets each query's expected partition to that of the
// last row holding the same oriented edge, as serve.Build resolves
// duplicates; a query absent in that orientation takes the reversed edge's
// last row, as Index.Partition falls back to; -1 if neither appears.
func expectLastWriteWins(a *metrics.Assignment, qs []Query) {
	last := make(map[graph.Edge]int32, 2*len(qs))
	for _, q := range qs {
		last[q.Edge] = -1
		last[graph.Edge{Src: q.Edge.Dst, Dst: q.Edge.Src}] = -1
	}
	for i, e := range a.Edges {
		if _, ok := last[e]; ok {
			last[e] = a.Parts[i]
		}
	}
	for j := range qs {
		e := qs[j].Edge
		qs[j].Want = last[e]
		if qs[j].Want < 0 && e.Src != e.Dst {
			qs[j].Want = last[graph.Edge{Src: e.Dst, Dst: e.Src}]
		}
	}
}

// prepare generates the workload's inputs for seed under root, or reuses
// them when a complete directory for the same (workload, seed, params)
// exists. The directory is built under a temporary name and renamed, so
// an interrupted preparation is never mistaken for a complete one.
func prepare(w Workload, seed uint64, root string) (Meta, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-seed%d-%s", w.Name, seed, w.params))
	metaPath := filepath.Join(dir, "meta.json")
	if b, err := os.ReadFile(metaPath); err == nil {
		var m Meta
		if err := json.Unmarshal(b, &m); err == nil {
			return m, nil
		}
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return Meta{}, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return Meta{}, err
	}
	// The served assignment places every edge of every graph, vertex ids
	// offset so the graphs stay disjoint, by the seeded rule.
	served := metrics.NewAssignment(w.K, 0)
	var graphs []string
	edges, offset := 0, graph.VertexID(0)
	for i := range w.Graphs {
		g, err := w.gen(seed, i)
		if err != nil {
			return Meta{}, err
		}
		name := fmt.Sprintf(w.Graph, i)
		if err := graph.SaveFile(filepath.Join(tmp, name), g); err != nil {
			return Meta{}, err
		}
		graphs = append(graphs, filepath.Join(dir, name))
		edges = len(g.Edges)
		for _, e := range g.Edges {
			served.Add(graph.Edge{Src: e.Src + offset, Dst: e.Dst + offset}, servedPart(seed, served.Len(), w.K))
		}
		offset += graph.VertexID(g.NumV)
	}
	if err := writeFile(filepath.Join(tmp, "served.tsv"), served.WriteTSV); err != nil {
		return Meta{}, err
	}
	qs := sampleQueries(served, w.Queries, seed)
	if err := writeFile(filepath.Join(tmp, "queries.bin"), func(out io.Writer) error { return writeQueries(out, qs) }); err != nil {
		return Meta{}, err
	}
	m := Meta{
		Workload: w.Name, Seed: seed, Params: w.params, Dir: dir,
		Edges: edges, K: w.K, Z: w.Z, Spread: w.Spread(),
		Strategy: w.Strategy, Window: w.Window, Workers: w.ScoreWorkers,
		Graphs:  graphs,
		Serve:   filepath.Join(dir, "served.tsv"),
		Queries: filepath.Join(dir, "queries.bin"),
	}
	b, err := json.Marshal(m)
	if err != nil {
		return Meta{}, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), b, 0o644); err != nil {
		return Meta{}, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return Meta{}, err
	}
	return m, os.Rename(tmp, dir)
}

// writeFile creates path, lets fill write it through a buffer, and checks
// every step of getting the bytes to the file.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writeQueries stores queries as little-endian (src, dst, want) uint32
// triples.
func writeQueries(w io.Writer, qs []Query) error {
	buf := make([]byte, 12)
	for _, q := range qs {
		binary.LittleEndian.PutUint32(buf[0:], uint32(q.Edge.Src))
		binary.LittleEndian.PutUint32(buf[4:], uint32(q.Edge.Dst))
		binary.LittleEndian.PutUint32(buf[8:], uint32(q.Want))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func readQueries(path string) ([]Query, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b)%12 != 0 || len(b) == 0 {
		return nil, fmt.Errorf("queries file %s: size %d is not a positive multiple of 12", path, len(b))
	}
	qs := make([]Query, len(b)/12)
	for j := range qs {
		r := b[12*j:]
		qs[j] = Query{
			Edge: graph.Edge{Src: graph.VertexID(binary.LittleEndian.Uint32(r[0:])), Dst: graph.VertexID(binary.LittleEndian.Uint32(r[4:]))},
			Want: int32(binary.LittleEndian.Uint32(r[8:])),
		}
	}
	return qs, nil
}
