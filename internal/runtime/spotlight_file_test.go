package runtime

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/hashx"
	"github.com/adwise-go/adwise/internal/stream"
)

// syntheticEdge derives edge i of the big test graph deterministically, so
// the materialised comparison slice and the file contents agree without a
// shared in-memory source.
func syntheticEdge(i int, numV uint64) graph.Edge {
	src := hashx.SplitMix64(uint64(i)) % numV
	dst := hashx.SplitMix64(uint64(i)^0xa5a5a5a5) % numV
	return graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
}

// writeBigEdgeFile writes n fixed-width edge lines (16 bytes each), so the
// planner's byte targets land exactly on the boundaries stream.Chunks
// would pick — making the segmented and materialised chunkings comparable
// edge for edge.
func writeBigEdgeFile(t *testing.T, path string, n int, numV uint64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for i := 0; i < n; i++ {
		e := syntheticEdge(i, numV)
		fmt.Fprintf(bw, "%07d %07d\n", e.Src, e.Dst)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedSpotlightMatchesMaterialised is the end-to-end check of the
// segmented loading path: a >=1M-edge graph file partitioned by z=4
// segment loaders (OpenFileStreams) must produce exactly the assignment of
// the materialised ChunkStreams path — same edges, same
// per-instance chunk semantics — while the segmented side never holds the
// full edge slice (each instance streams its own byte range; peak edge
// buffering is one batch per instance).
func TestSegmentedSpotlightMatchesMaterialised(t *testing.T) {
	const (
		n    = 1 << 20 // 1,048,576 edges
		numV = 1 << 17
	)
	path := filepath.Join(t.TempDir(), "big.txt")
	writeBigEdgeFile(t, path, n, numV)

	cfg := SpotlightConfig{K: 32, Z: 4, Spread: 8}
	spec := Spec{K: 32, Seed: 9}

	// Segmented: streams the file's byte ranges directly.
	segmented, err := runFile("hdrf", path, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Materialised reference: the same edges as an in-memory slice.
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = syntheticEdge(i, numV)
	}
	materialised, err := runChunks(edges, cfg, cfg.Instances("hdrf", spec))
	if err != nil {
		t.Fatal(err)
	}

	// Same per-instance chunk semantics: the planner's per-segment edge
	// counts must equal the materialised chunk sizes.
	ranges, err := stream.Plan(path, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	chunks := stream.Chunks(edges, cfg.Z)
	for i, r := range ranges {
		if r.Edges != int64(len(chunks[i])) {
			t.Fatalf("segment %d holds %d edges, materialised chunk holds %d", i, r.Edges, len(chunks[i]))
		}
	}

	if segmented.Len() != n || materialised.Len() != n {
		t.Fatalf("assigned %d (segmented) / %d (materialised) of %d edges", segmented.Len(), materialised.Len(), n)
	}
	for i := range segmented.Edges {
		if segmented.Edges[i] != materialised.Edges[i] {
			t.Fatalf("edge %d differs: %v (segmented) vs %v (materialised)", i, segmented.Edges[i], materialised.Edges[i])
		}
		if segmented.Parts[i] != materialised.Parts[i] {
			t.Fatalf("edge %d assigned to %d (segmented) vs %d (materialised)", i, segmented.Parts[i], materialised.Parts[i])
		}
	}
}

// TestBinarySegmentedSpotlightMatchesMaterialised mirrors the 1M-edge text
// equivalence test for the ADWB path: a binary graph file partitioned by
// z=4 record-range loaders (OpenFileStreams, planned by header arithmetic
// with no counting pass) must produce exactly the assignment of the
// materialised ChunkStreams path — PlanBinary deliberately
// reproduces the stream.Chunks size distribution, so the instances consume
// identical chunks edge for edge.
func TestBinarySegmentedSpotlightMatchesMaterialised(t *testing.T) {
	const (
		n    = 1 << 20 // 1,048,576 edges
		numV = 1 << 17
	)
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = syntheticEdge(i, numV)
	}
	path := filepath.Join(t.TempDir(), "big.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, &graph.Graph{NumV: numV, Edges: edges}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := SpotlightConfig{K: 32, Z: 4, Spread: 8}
	spec := Spec{K: 32, Seed: 9}

	segmented, err := runFile("hdrf", path, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	materialised, err := runChunks(edges, cfg, cfg.Instances("hdrf", spec))
	if err != nil {
		t.Fatal(err)
	}

	// Identical chunk semantics: planned per-range record counts must equal
	// the materialised chunk sizes.
	ranges, err := stream.PlanFile(path, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	chunks := stream.Chunks(edges, cfg.Z)
	for i, r := range ranges {
		if r.Format != stream.FormatBinary {
			t.Fatalf("range %d planned as %v, want binary", i, r.Format)
		}
		if r.Edges != int64(len(chunks[i])) {
			t.Fatalf("segment %d holds %d edges, materialised chunk holds %d", i, r.Edges, len(chunks[i]))
		}
	}

	if segmented.Len() != n || materialised.Len() != n {
		t.Fatalf("assigned %d (segmented) / %d (materialised) of %d edges", segmented.Len(), materialised.Len(), n)
	}
	for i := range segmented.Edges {
		if segmented.Edges[i] != materialised.Edges[i] {
			t.Fatalf("edge %d differs: %v (segmented) vs %v (materialised)", i, segmented.Edges[i], materialised.Edges[i])
		}
		if segmented.Parts[i] != materialised.Parts[i] {
			t.Fatalf("edge %d assigned to %d (segmented) vs %d (materialised)", i, segmented.Parts[i], materialised.Parts[i])
		}
	}
}

func TestRunStrategySpotlightFileErrors(t *testing.T) {
	cfg := SpotlightConfig{K: 4, Z: 2, Spread: 2}
	if _, err := runFile("hdrf", filepath.Join(t.TempDir(), "nope.txt"), cfg, Spec{K: 4}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("0 1\n1 2\nbroken line here no\n2 3\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runFile("hdrf", bad, cfg, Spec{K: 4}); err == nil {
		t.Error("malformed mid-file line did not fail the run")
	}
	if _, err := runFile("nope", bad, cfg, Spec{K: 4}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunStrategySpotlightFileAdwise(t *testing.T) {
	// The window strategy composes with segmented loading: all edges
	// assigned, spreads respected.
	const n = 4000
	path := filepath.Join(t.TempDir(), "mid.txt")
	writeBigEdgeFile(t, path, n, 1<<10)
	cfg := SpotlightConfig{K: 8, Z: 4, Spread: 2, Sequential: true}
	a, err := runFile("adwise", path, cfg, Spec{K: 8, Seed: 3, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != n {
		t.Fatalf("assigned %d of %d edges", a.Len(), n)
	}
	ranges, err := stream.Plan(path, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	for i, r := range ranges {
		ok := make(map[int32]bool)
		for _, p := range cfg.SpreadFor(i) {
			ok[int32(p)] = true
		}
		for j := int64(0); j < r.Edges; j++ {
			if !ok[a.Parts[idx]] {
				t.Fatalf("edge %d of segment %d assigned to %d outside spread %v", idx, i, a.Parts[idx], cfg.SpreadFor(i))
			}
			idx++
		}
	}
}

// TestSingleInstanceSourcesMatchDirectRun pins the single-instance paths
// the CLIs gave up for the one executor: for every registered strategy,
// with no vertex budget and with a binding one, the file source at z = 1
// through Instances writes the rows of New(name, spec).Run(stream.Open(path))
// on a text and a binary file, and the in-memory source at z = 1 the rows
// of Run(stream.FromEdges(edges)).
func TestSingleInstanceSourcesMatchDirectRun(t *testing.T) {
	g, err := gen.RMAT(12, 20_000, 0.57, 0.19, 0.19, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.bin")}
	for _, p := range paths {
		if err := graph.SaveFile(p, g); err != nil {
			t.Fatal(err)
		}
	}
	direct := func(name string, spec Spec, s stream.Stream) string {
		t.Helper()
		st, err := New(name, spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := st.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return assignmentDigest(a)
	}
	cfg := SpotlightConfig{K: 8, Z: 1, Spread: 8}
	for _, name := range Names() {
		digests := map[int64]string{}
		for _, budget := range []int64{0, 48 << 10} {
			spec := Spec{K: 8, Seed: 42, Window: 64, VertexBudgetBytes: budget}
			label := fmt.Sprintf("%s/budget=%d", name, budget)
			a, err := runChunks(g.Edges, cfg, cfg.Instances(name, spec))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			digests[budget] = assignmentDigest(a)
			if want := direct(name, spec, stream.FromEdges(g.Edges)); digests[budget] != want {
				t.Errorf("%s: in-memory source at z=1 differs from Run(FromEdges)", label)
			}
			for _, path := range paths {
				fs, err := stream.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				want := direct(name, spec, fs)
				fs.Close()
				a, err := runFile(name, path, cfg, spec)
				if err != nil {
					t.Fatalf("%s %s: %v", label, path, err)
				}
				if got := assignmentDigest(a); got != want {
					t.Errorf("%s: file source at z=1 differs from Run(stream.Open) on %s", label, filepath.Base(path))
				}
			}
		}
		// The budget must bind, or its half of the table is not under test.
		if (name == "adwise" || name == "hdrf") && digests[0] == digests[48<<10] {
			t.Errorf("%s: a 48 KiB vertex budget does not change the assignment", name)
		}
	}
}

// TestFileStreamsFailWhenTextChangesAfterPlanning pins the planned counts
// end to end: a data line of a planned text file that turns into a
// comment of the same length before its segment streams it leaves that
// segment an edge short of its plan, and the run must fail rather than
// partition what is left.
func TestFileStreamsFailWhenTextChangesAfterPlanning(t *testing.T) {
	for _, name := range []string{"hdrf", "adwise"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.txt")
			writeBigEdgeFile(t, path, 64, 1<<10) // 16-byte lines
			cfg := SpotlightConfig{K: 4, Z: 2, Spread: 2}
			streams, closeAll, err := OpenFileStreams(path, cfg.Z, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll()
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.WriteAt([]byte("#"), 40*16) // line 40 lies in the second segment
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			a, _, err := RunSpotlightStreamsStats(streams, cfg, cfg.Instances(name, Spec{Window: 8}))
			if err == nil {
				t.Fatalf("a file that lost a planned edge partitioned as %d edges with no error", a.Len())
			}
		})
	}
}
