package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
)

// updateGolden rewrites the committed digest file from the current code.
// Use it only for an intended behaviour change, and say so in the change
// description: a refactor must leave the file byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite "+goldenFile+" from the current code")

const goldenFile = "testdata/golden_digests.txt"

// goldenStrategies builds each single-edge strategy by its registry name.
var goldenStrategies = []struct {
	name  string
	build func(Config) (Partitioner, error)
}{
	{"hash", func(c Config) (Partitioner, error) { return NewHash(c) }},
	{"1d", func(c Config) (Partitioner, error) { return NewOneDim(c) }},
	{"2d", func(c Config) (Partitioner, error) { return NewTwoDim(c) }},
	{"grid", func(c Config) (Partitioner, error) { return NewGrid(c) }},
	{"greedy", func(c Config) (Partitioner, error) { return NewGreedy(c) }},
	{"dbh", func(c Config) (Partitioner, error) { return NewDBH(c) }},
	{"hdrf", func(c Config) (Partitioner, error) { return NewHDRF(c, HDRFDefaultLambda) }},
}

// goldenCell is one configuration of the golden assignment matrix.
type goldenCell struct {
	strategy int // index into goldenStrategies
	graph    string
	k        int
	// budget selects the vertex state at its floored minimum table
	// (VertexBudgetBytes: 1); false leaves it unlimited.
	budget bool
	// thirds restricts the run to every third partition; false allows all.
	thirds bool
}

func (c goldenCell) name() string {
	budget, allowed := "budget=0", "allowed=all"
	if c.budget {
		budget = "budget=floor"
	}
	if c.thirds {
		allowed = "allowed=thirds"
	}
	return fmt.Sprintf("%s/%s/k=%d/%s/%s", goldenStrategies[c.strategy].name, c.graph, c.k, budget, allowed)
}

func (c goldenCell) config() Config {
	cfg := Config{K: c.k, Seed: 7}
	if c.budget {
		cfg.VertexBudgetBytes = 1
	}
	if c.thirds {
		for p := 0; p < c.k; p += 3 {
			cfg.Allowed = append(cfg.Allowed, p)
		}
	}
	return cfg
}

// goldenMatrix is 7 strategies × {Zipf, RMAT} × k ∈ {32, 96} × budget
// {0, floor} × allowed {all, every third}: 112 cells. At k=96 the
// every-third spread spans both replica-bitmap words.
func goldenMatrix() []goldenCell {
	var cells []goldenCell
	for s := range goldenStrategies {
		for _, g := range []string{"zipf", "rmat"} {
			for _, k := range []int{32, 96} {
				for _, budget := range []bool{false, true} {
					for _, thirds := range []bool{false, true} {
						cells = append(cells, goldenCell{s, g, k, budget, thirds})
					}
				}
			}
		}
	}
	return cells
}

// goldenEdges returns the 2k-edge input stream of a graph model: the same
// two streams as the core package's golden matrix.
func goldenEdges(t *testing.T, model string) []graph.Edge {
	t.Helper()
	var g *graph.Graph
	var err error
	switch model {
	case "zipf":
		g, err = gen.Zipf(8000, 2000, 1.3, 1)
	case "rmat":
		g, err = gen.RMAT(13, 2000, 0.57, 0.19, 0.19, 1)
	default:
		t.Fatalf("unknown golden graph model %q", model)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g.Edges
}

// assignmentDigest is the SHA-256 of the (src, dst, part) sequence, each
// field a little-endian uint32.
func assignmentDigest(a *metrics.Assignment) string {
	h := sha256.New()
	buf := make([]byte, 0, 12)
	for i, e := range a.Edges {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(e.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Parts[i]))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runGoldenCell partitions the cell's stream and returns its digest line
// and the number of vertices the cache evicted.
func runGoldenCell(t *testing.T, c goldenCell, edges []graph.Edge) (string, int64) {
	t.Helper()
	p, err := goldenStrategies[c.strategy].build(c.config())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(stream.FromEdges(edges), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(edges) {
		t.Fatalf("%s: assigned %d of %d edges", c.name(), a.Len(), len(edges))
	}
	sum := metrics.Summarize(a)
	evicted := p.Cache().EvictedVertices()
	line := fmt.Sprintf("%s %s rf=%s maxload=%d evicted=%d", c.name(), assignmentDigest(a),
		strconv.FormatFloat(sum.ReplicationDegree, 'g', -1, 64), sum.MaxSize, evicted)
	return line, evicted
}

// TestGoldenAssignmentDigests is the cross-build behaviour anchor of the
// single-edge strategies: every cell of the matrix must reproduce the
// committed digest of its assignment sequence, its replication factor, its
// largest partition and its eviction count exactly. Run with -update to
// re-record after an intended behaviour change.
func TestGoldenAssignmentDigests(t *testing.T) {
	edges := map[string][]graph.Edge{
		"zipf": goldenEdges(t, "zipf"),
		"rmat": goldenEdges(t, "rmat"),
	}
	cells := goldenMatrix()
	got := make([]string, len(cells))
	for i, c := range cells {
		line, evicted := runGoldenCell(t, c, edges[c.graph])
		if c.graph == "rmat" && c.budget && evicted == 0 {
			t.Errorf("%s: the floored budget evicted nothing; the cell no longer exercises eviction", c.name())
		}
		got[i] = line
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", goldenFile, len(got))
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden digests (run with -update to record them): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d cells, the matrix has %d", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d diverged from %s:\n got  %s\n want %s", i, goldenFile, got[i], want[i])
		}
	}
}
