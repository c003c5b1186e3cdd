// Package graph provides the graph substrate for the ADWISE reproduction:
// edge lists, compressed sparse row adjacency, degree and clustering
// statistics, the text and binary (ADWB) edge-list writers, and the ADWB
// record layout. Graph files are read by package stream alone.
//
// Graphs are undirected for partitioning purposes (a vertex-cut does not
// distinguish edge direction), but edges retain their (Src, Dst) orientation
// so directed workloads such as PageRank can use it.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. Vertex ids are dense non-negative integers;
// 32 bits covers every graph in the paper's evaluation (max 41M vertices).
type VertexID uint32

// Edge is a single graph edge from Src to Dst.
type Edge struct {
	Src, Dst VertexID
}

// Reverse returns the edge with endpoints swapped.
func (e Edge) Reverse() Edge { return Edge{Src: e.Dst, Dst: e.Src} }

// Other returns the endpoint of e that is not v. If v is not an endpoint,
// it returns Dst.
func (e Edge) Other(v VertexID) VertexID {
	if e.Src == v {
		return e.Dst
	}
	return e.Src
}

// IsSelfLoop reports whether both endpoints coincide.
func (e Edge) IsSelfLoop() bool { return e.Src == e.Dst }

// String renders the edge as "(src->dst)".
func (e Edge) String() string { return fmt.Sprintf("(%d->%d)", e.Src, e.Dst) }

// Graph is an edge-list graph with a fixed vertex universe 0..NumV-1.
type Graph struct {
	// NumV is the number of vertices; all edge endpoints are < NumV.
	NumV int
	// Edges is the edge list. Order matters: it is the stream order used by
	// streaming partitioners.
	Edges []Edge
}

// New builds a Graph from an edge list, computing the vertex universe from
// the maximum endpoint id. It returns an error if the edge list is empty.
func New(edges []Edge) (*Graph, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("graph: empty edge list")
	}
	var maxID VertexID
	for _, e := range edges {
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	return &Graph{NumV: int(maxID) + 1, Edges: edges}, nil
}

// V returns the number of vertices.
func (g *Graph) V() int { return g.NumV }

// E returns the number of edges.
func (g *Graph) E() int { return len(g.Edges) }

// Degrees returns the undirected degree of every vertex (self-loops count
// once).
func (g *Graph) Degrees() []int {
	deg := make([]int, g.NumV)
	for _, e := range g.Edges {
		deg[e.Src]++
		if e.Dst != e.Src {
			deg[e.Dst]++
		}
	}
	return deg
}

// OutDegrees returns the directed out-degree of every vertex.
func (g *Graph) OutDegrees() []int {
	deg := make([]int, g.NumV)
	for _, e := range g.Edges {
		deg[e.Src]++
	}
	return deg
}

// MaxDegree returns the largest undirected degree in the graph.
func (g *Graph) MaxDegree() int {
	m := 0
	for _, d := range g.Degrees() {
		if d > m {
			m = d
		}
	}
	return m
}

// Dedup returns a copy of the graph with duplicate undirected edges and
// self-loops removed. Edge (u,v) and (v,u) are considered duplicates. The
// relative order of first occurrences is preserved.
func (g *Graph) Dedup() *Graph {
	seen := make(map[Edge]struct{}, len(g.Edges))
	out := make([]Edge, 0, len(g.Edges))
	for _, e := range g.Edges {
		if e.IsSelfLoop() {
			continue
		}
		key := e
		if key.Src > key.Dst {
			key = key.Reverse()
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, e)
	}
	return &Graph{NumV: g.NumV, Edges: out}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	return &Graph{NumV: g.NumV, Edges: edges}
}

// SortEdges orders the edge list by (Src, Dst); useful for golden tests and
// canonical comparisons. It sorts in place.
func (g *Graph) SortEdges() {
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}
