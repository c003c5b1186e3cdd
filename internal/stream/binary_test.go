package stream

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// writeBinaryFile writes edges as an ADWB file and returns its path.
func writeBinaryFile(t *testing.T, edges []graph.Edge) string {
	t.Helper()
	g := &graph.Graph{NumV: 1 << 20, Edges: edges}
	path := filepath.Join(t.TempDir(), "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func randomEdges(rng *rand.Rand, n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(rng.Uint32()),
			Dst: graph.VertexID(rng.Uint32()),
		}
	}
	return edges
}

func TestBinaryFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	edges := randomEdges(rng, 1000)
	path := writeBinaryFile(t, edges)

	bf, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	if rem := bf.Remaining(); rem != int64(len(edges)) {
		t.Fatalf("Remaining = %d, want %d", rem, len(edges))
	}
	got := drain(t, bf)
	if err := bf.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("drained %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	if bf.Remaining() != 0 {
		t.Errorf("Remaining after drain = %d, want 0", bf.Remaining())
	}
}

func TestBinaryFileNextMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	edges := randomEdges(rng, 100)
	path := writeBinaryFile(t, edges)
	bf, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	var one [1]graph.Edge
	for i, want := range edges {
		if n := bf.NextBatch(one[:]); n != 1 {
			t.Fatalf("one-edge batches exhausted at edge %d of %d", i, len(edges))
		}
		if one[0] != want {
			t.Fatalf("edge %d = %v, want %v", i, one[0], want)
		}
	}
	if n := bf.NextBatch(one[:]); n != 0 {
		t.Error("NextBatch yielded an edge past the declared count")
	}
}

func TestOpenBinaryFileRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	valid := func(numE uint64, dataBytes int) []byte {
		return append(binaryHeaderBytes(10, numE), make([]byte, dataBytes)...)
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      []byte("ADWB\x01"),
		"bad magic":         valid(2, 16)[1:],
		"truncated body":    valid(4, 24),    // declares 4 records, holds 3
		"trailing bytes":    valid(2, 17),    // one stray byte after records
		"torn record":       valid(2, 12),    // second record cut mid-way
		"overlong declared": valid(1<<40, 8), // implausible count
	}
	for name, data := range cases {
		if _, err := OpenBinaryFile(write(name, data)); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
		if _, err := PlanBinary(write(name, data), 1); err == nil {
			t.Errorf("%s: planned, want error", name)
		}
	}
	// Sanity: the valid template really is valid.
	if _, err := OpenBinaryFile(write("valid", valid(2, 16))); err != nil {
		t.Errorf("valid file rejected: %v", err)
	}
}

func TestBinaryFileReportsMidStreamTruncation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	edges := randomEdges(rng, 512)
	path := writeBinaryFile(t, edges)
	bf, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	// Shrink the file after the size validation: the stream must fail, not
	// exhaust short with a nil Err.
	if err := os.Truncate(path, graph.BinaryHeaderSize+100*graph.BinaryRecordSize); err != nil {
		t.Fatal(err)
	}
	got := drain(t, bf)
	if bf.Err() == nil {
		t.Fatalf("drained %d of %d edges from a truncated file with nil Err", len(got), len(edges))
	}
	if bf.Remaining() != 0 {
		t.Errorf("Remaining after stream error = %d, want 0", bf.Remaining())
	}
}

func TestPlanBinarySegmentsCoverEveryEdgeOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for round := 0; round < 40; round++ {
		n := 1 + rng.IntN(500)
		z := 1 + rng.IntN(8)
		if z > n {
			z = n
		}
		edges := randomEdges(rng, n)
		path := writeBinaryFile(t, edges)
		ranges, err := PlanBinary(path, z)
		if err != nil {
			t.Fatalf("round %d (n=%d z=%d): %v", round, n, z, err)
		}
		var got []graph.Edge
		for i, r := range ranges {
			seg, err := OpenSegment(r)
			if err != nil {
				t.Fatal(err)
			}
			part := drain(t, seg)
			if err := seg.Err(); err != nil {
				t.Fatalf("round %d segment %d: %v", round, i, err)
			}
			if int64(len(part)) != r.Edges {
				t.Fatalf("round %d segment %d: %d edges, planned %d", round, i, len(part), r.Edges)
			}
			seg.Close()
			got = append(got, part...)
		}
		if len(got) != n {
			t.Fatalf("round %d: segments yielded %d edges, want %d", round, len(got), n)
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("round %d: edge %d = %v, want %v", round, i, got[i], edges[i])
			}
		}
	}
}

// TestPlanBinaryTilesRecordRegion is the pure-arithmetic property: for
// random edge counts and z, the planned ranges tile the record region
// exactly — contiguous, record-aligned, Chunks-distributed sizes, counts
// consistent with the byte math — without ever opening a segment.
func TestPlanBinaryTilesRecordRegion(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for round := 0; round < 200; round++ {
		n := 1 + rng.IntN(100_000)
		z := 1 + rng.IntN(64)
		if z > n {
			z = n
		}
		path := writeSyntheticBinary(t, uint64(n))
		ranges, err := PlanBinary(path, z)
		if err != nil {
			t.Fatalf("round %d (n=%d z=%d): %v", round, n, z, err)
		}
		if len(ranges) != z {
			t.Fatalf("round %d: %d ranges, want %d", round, len(ranges), z)
		}
		offset := int64(graph.BinaryHeaderSize)
		var total int64
		base, extra := int64(n)/int64(z), int64(n)%int64(z)
		for i, r := range ranges {
			if r.Format != FormatBinary {
				t.Fatalf("round %d range %d format = %v", round, i, r.Format)
			}
			if r.Start != offset {
				t.Fatalf("round %d range %d starts at %d, want %d (ranges must tile)", round, i, r.Start, offset)
			}
			if (r.End-r.Start)%graph.BinaryRecordSize != 0 {
				t.Fatalf("round %d range %d [%d,%d) not record-aligned", round, i, r.Start, r.End)
			}
			if got := (r.End - r.Start) / graph.BinaryRecordSize; got != r.Edges {
				t.Fatalf("round %d range %d spans %d records but declares %d", round, i, got, r.Edges)
			}
			want := base
			if int64(i) < extra {
				want++
			}
			if r.Edges != want {
				t.Fatalf("round %d range %d holds %d records, want Chunks size %d", round, i, r.Edges, want)
			}
			offset = r.End
			total += r.Edges
		}
		if total != int64(n) {
			t.Fatalf("round %d: ranges hold %d records, want %d", round, total, n)
		}
		if end := int64(graph.BinaryHeaderSize) + int64(n)*graph.BinaryRecordSize; offset != end {
			t.Fatalf("round %d: last range ends at %d, want record region end %d", round, offset, end)
		}
	}
}

// writeSyntheticBinary creates an ADWB file declaring numE records whose
// data region is a hole (never written): planning must still work, because
// it reads the header and stats the size — nothing else.
func writeSyntheticBinary(t *testing.T, numE uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "synthetic.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(binaryHeaderBytes(1, numE)); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(int64(graph.BinaryHeaderSize) + int64(numE)*graph.BinaryRecordSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPlanBinaryNeverReadsDataRegion pins the O(1) acceptance criterion:
// planning an ADWB file is header arithmetic only. The fixture declares a
// multi-GiB record region that exists only as a filesystem hole — any
// implementation that scanned or counted the data would grind through
// gigabytes of zeros; header arithmetic returns instantly with exact
// ranges.
func TestPlanBinaryNeverReadsDataRegion(t *testing.T) {
	const numE = 1 << 28 // 2 GiB of records, all hole
	path := writeSyntheticBinary(t, numE)
	for _, z := range []int{1, 7, 64} {
		ranges, err := PlanBinary(path, z)
		if err != nil {
			t.Fatalf("z=%d: %v", z, err)
		}
		var total int64
		for _, r := range ranges {
			total += r.Edges
		}
		if total != numE {
			t.Fatalf("z=%d: planned %d records, want %d", z, total, numE)
		}
		if end := ranges[len(ranges)-1].End; end != int64(graph.BinaryHeaderSize)+numE*graph.BinaryRecordSize {
			t.Fatalf("z=%d: region ends at %d", z, end)
		}
	}
}

func TestOpenBinarySegmentRejectsBadRanges(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	path := writeBinaryFile(t, randomEdges(rng, 16))
	const h = graph.BinaryHeaderSize
	cases := map[string]Range{
		"inside header":   {Path: path, Format: FormatBinary, Start: h - 4, End: h + 8, Edges: 1},
		"inverted":        {Path: path, Format: FormatBinary, Start: h + 16, End: h + 8, Edges: 1},
		"unaligned start": {Path: path, Format: FormatBinary, Start: h + 3, End: h + 11, Edges: 1},
		"unaligned span":  {Path: path, Format: FormatBinary, Start: h, End: h + 13, Edges: 1},
		"count mismatch":  {Path: path, Format: FormatBinary, Start: h, End: h + 16, Edges: 3},
		"past region":     {Path: path, Format: FormatBinary, Start: h, End: h + 17*graph.BinaryRecordSize, Edges: 17},
	}
	for name, r := range cases {
		if _, err := OpenBinarySegment(r); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

func TestOpenAndPlanFileDispatchOnFormat(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	edges := randomEdges(rng, 64)
	binPath := writeBinaryFile(t, edges)
	var txt bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&txt, "%d %d\n", e.Src, e.Dst)
	}
	txtPath := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(txtPath, txt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path   string
		format Format
	}{
		{binPath, FormatBinary},
		{txtPath, FormatText},
	} {
		if f, err := Sniff(tc.path); err != nil || f != tc.format {
			t.Fatalf("Sniff(%s) = %v, %v; want %v", tc.path, f, err, tc.format)
		}
		s, err := Open(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, s)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if len(got) != len(edges) {
			t.Fatalf("%v Open drained %d edges, want %d", tc.format, len(got), len(edges))
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("%v edge %d = %v, want %v", tc.format, i, got[i], edges[i])
			}
		}
		ranges, err := PlanFile(tc.path, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range ranges {
			if r.Format != tc.format {
				t.Fatalf("PlanFile(%s) range %d format = %v, want %v", tc.path, i, r.Format, tc.format)
			}
		}
	}

	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Open on a missing file succeeded")
	}
	if _, err := PlanFile(filepath.Join(t.TempDir(), "nope"), 2); err == nil {
		t.Error("PlanFile on a missing file succeeded")
	}
}
