package adwise

import (
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/stream"
)

// GraphPreset identifies one of the paper's evaluation graphs (Table II),
// reproduced as a synthetic stand-in (see DESIGN.md §3).
type GraphPreset = gen.Preset

// The three evaluation graphs.
const (
	// GraphOrkut mimics the Orkut social network: power-law degrees,
	// near-zero clustering (ĉ≈0.04).
	GraphOrkut = gen.PresetOrkut
	// GraphBrain mimics the Brain biological network: dense, moderate
	// clustering (ĉ≈0.51).
	GraphBrain = gen.PresetBrain
	// GraphWeb mimics the Web graph: extreme clustering (ĉ≈0.82).
	GraphWeb = gen.PresetWeb
)

// Generate produces the stand-in graph for a preset at the given scale
// (1.0 = default evaluation size). Deterministic per seed.
func Generate(preset GraphPreset, scale float64, seed uint64) (*Graph, error) {
	return preset.Generate(scale, seed)
}

// GraphStats summarises a graph Table II-style (|V|, |E|, clustering
// coefficient ĉ estimated on a sample).
type GraphStats = graph.Stats

// Stats computes GraphStats with the default 2000-vertex clustering
// sample.
func Stats(g *Graph, seed uint64) GraphStats {
	return graph.Summarize(g, graph.StatsOptions{Seed: seed})
}

// Synthetic generators beyond the paper presets; all deterministic per
// seed and stdlib-only.
var (
	// ErdosRenyi generates G(n, m) with m uniform random edges.
	ErdosRenyi = gen.ErdosRenyi
	// BarabasiAlbert generates a preferential-attachment power-law graph.
	BarabasiAlbert = gen.BarabasiAlbert
	// HolmeKim generates a power-law graph with tunable clustering.
	HolmeKim = gen.HolmeKim
	// WattsStrogatz generates a small-world ring lattice.
	WattsStrogatz = gen.WattsStrogatz
	// Community generates dense communities with sparse inter-links.
	Community = gen.Community
	// RMAT generates a recursive-matrix (Graph500-style) graph.
	RMAT = gen.RMAT
	// Zipf generates edges with Zipf-distributed endpoints — a direct
	// degree-skew knob for memory-pressure workloads.
	Zipf = gen.Zipf
	// Star, Path, Cycle, Clique, Grid2D generate structured test graphs.
	Star   = gen.Star
	Path   = gen.Path
	Cycle  = gen.Cycle
	Clique = gen.Clique
	Grid2D = gen.Grid2D
)

// LoadGraph reads a graph file (text edge list or the package's binary
// format, sniffed automatically) into memory through the reader StreamFile
// returns. NumV is the largest endpoint plus one in both formats, so a
// text copy and a binary copy of one graph load alike; a binary header's
// vertex count is checked but does not widen it.
func LoadGraph(path string) (*Graph, error) { return stream.Load(path) }

// SaveGraph writes a graph to path: binary when the extension is ".bin",
// text edge list otherwise.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }
