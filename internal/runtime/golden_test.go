package runtime

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
)

// updateGolden rewrites the committed digest file from the current code.
// Use it only for an intended behaviour change, and say so in the change
// description: a refactor must leave the file byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite "+goldenFile+" from the current code")

const goldenFile = "testdata/golden_digests.txt"

// goldenK is the global partition count of every spotlight golden cell.
const goldenK = 8

// goldenCell is one configuration of the spotlight golden matrix.
type goldenCell struct {
	strategy string // "adwise" or "hdrf"
	z        int
	spread   int
	// file feeds the instances from OpenFileStreams over the edges saved
	// as text; false from ChunkStreams over the in-memory edges.
	file bool
}

func (c goldenCell) name() string {
	entry := "edges"
	if c.file {
		entry = "file"
	}
	return fmt.Sprintf("%s/k=%d/z=%d/spread=%d/%s", c.strategy, goldenK, c.z, c.spread, entry)
}

// spec returns the cell's strategy spec: ADWISE at a fixed window of 64,
// HDRF at its defaults.
func (c goldenCell) spec() Spec {
	s := Spec{K: goldenK, Seed: 7}
	if c.strategy == "adwise" {
		s.Window = 64
	}
	return s
}

// goldenMatrix is {adwise, hdrf} × z ∈ {2, 4} × spread ∈ {K/z, K} ×
// {in-memory edges, text file}: 16 cells.
func goldenMatrix() []goldenCell {
	var cells []goldenCell
	for _, s := range []string{"adwise", "hdrf"} {
		for _, z := range []int{2, 4} {
			for _, spread := range []int{goldenK / z, goldenK} {
				for _, file := range []bool{false, true} {
					cells = append(cells, goldenCell{strategy: s, z: z, spread: spread, file: file})
				}
			}
		}
	}
	return cells
}

// goldenGraph returns the 2k-edge RMAT stream of the core and partition
// golden matrices.
func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(13, 2000, 0.57, 0.19, 0.19, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assignmentDigest is the SHA-256 of the merged (src, dst, part) rows,
// each field a little-endian uint32.
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

// runGoldenCell runs the cell's registry instances (Instances) through the
// executor, fed by its source, and returns its digest line.
func runGoldenCell(t *testing.T, c goldenCell, edges []graph.Edge, path string) string {
	t.Helper()
	cfg := SpotlightConfig{K: goldenK, Z: c.z, Spread: c.spread}
	var a *metrics.Assignment
	var err error
	if c.file {
		a, err = runFile(c.strategy, path, cfg, c.spec())
	} else {
		a, err = runChunks(edges, cfg, cfg.Instances(c.strategy, c.spec()))
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name(), err)
	}
	if a.Len() != len(edges) {
		t.Fatalf("%s: assigned %d of %d edges", c.name(), a.Len(), len(edges))
	}
	sum := metrics.Summarize(a)
	return fmt.Sprintf("%s %s rf=%s maxload=%d", c.name(), assignmentDigest(a),
		strconv.FormatFloat(sum.ReplicationDegree, 'g', -1, 64), sum.MaxSize)
}

// TestGoldenSpotlightDigests is the cross-build behaviour anchor of the
// spotlight executor: every cell must reproduce the committed digest of
// its merged assignment, its replication factor and its largest
// partition exactly. The core and partition golden files pin single
// instances; this one pins the chunking, per-instance spreads, seeds,
// shard splits and the merge of the spotlight executor over both sources.
// Run with -update to re-record after an intended behaviour change.
func TestGoldenSpotlightDigests(t *testing.T) {
	g := goldenGraph(t)
	path := filepath.Join(t.TempDir(), "golden.txt")
	if err := graph.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	cells := goldenMatrix()
	got := make([]string, len(cells))
	for i, c := range cells {
		got[i] = runGoldenCell(t, c, g.Edges, path)
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
