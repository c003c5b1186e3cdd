package stream

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

func TestNextBatchSlice(t *testing.T) {
	s := FromEdges(edgesN(10))
	var buf [4]graph.Edge
	sizes := []int{4, 4, 2, 0}
	total := 0
	for _, want := range sizes {
		n := s.NextBatch(buf[:])
		if n != want {
			t.Fatalf("NextBatch = %d, want %d", n, want)
		}
		for i := 0; i < n; i++ {
			if buf[i].Src != graph.VertexID(total+i) {
				t.Fatalf("batch edge %d = %v out of order", total+i, buf[i])
			}
		}
		total += n
	}
}

func TestCollect(t *testing.T) {
	edges := edgesN(1000)
	got, err := Collect(FromEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("Collect returned %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("Collect edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	if got, err := Collect(FromEdges(nil)); err != nil || len(got) != 0 {
		t.Errorf("Collect of empty stream = %d edges, err %v", len(got), err)
	}
}

// batchyStream delivers its edges in short batches of cycling sizes 1, 7
// and 3 (never more than dst holds) and records how much room each call
// was offered. Its Remaining hides the last hidden edges, so a non-zero
// hidden makes it deliver past what it reports.
type batchyStream struct {
	edges  []graph.Edge
	pos    int
	hidden int
	calls  int
	offers []int
}

func (s *batchyStream) NextBatch(dst []graph.Edge) int {
	s.offers = append(s.offers, len(dst))
	size := []int{1, 7, 3}[s.calls%3]
	s.calls++
	n := copy(dst[:min(size, len(dst))], s.edges[s.pos:])
	s.pos += n
	return n
}

func (s *batchyStream) Remaining() int64 {
	return int64(max(len(s.edges)-s.pos-s.hidden, 0))
}

// TestCollectUnevenBatches pins that Collect gathers a stream that
// delivers fewer edges than it is offered, in order, into an exact-size
// slice, and that it offers the stream the output's whole free tail
// rather than a fixed-size buffer.
func TestCollectUnevenBatches(t *testing.T) {
	edges := edgesN(1000)
	s := &batchyStream{edges: edges}
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) || cap(got) != len(edges) {
		t.Fatalf("Collect returned len %d cap %d, want %d and %d", len(got), cap(got), len(edges), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("Collect edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	if s.offers[0] != len(edges) || s.offers[1] != len(edges)-1 {
		t.Errorf("first offers %v, want %d then %d (the output's free tail)", s.offers[:2], len(edges), len(edges)-1)
	}
}

// TestCollectOverDelivery pins that edges a stream delivers past its
// Remaining are kept, in order, as they were before Collect read into its
// exact-size output: more than one spill buffer's worth of them.
func TestCollectOverDelivery(t *testing.T) {
	for _, hidden := range []int{1, 700, 1000} {
		edges := edgesN(1000)
		got, err := Collect(&batchyStream{edges: edges, hidden: hidden})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(edges) {
			t.Fatalf("hidden %d: Collect returned %d edges, want %d", hidden, len(got), len(edges))
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("hidden %d: Collect edge %d = %v, want %v", hidden, i, got[i], edges[i])
			}
		}
	}
}

func TestBufferedMatchesInner(t *testing.T) {
	edges := edgesN(100)
	b := NewBuffered(FromEdges(edges), 16)
	if got := b.Remaining(); got != 100 {
		t.Fatalf("Remaining before draw = %d, want 100", got)
	}
	got := drain(t, b)
	if len(got) != len(edges) {
		t.Fatalf("drained %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	if got := b.Remaining(); got != 0 {
		t.Errorf("Remaining after drain = %d, want 0", got)
	}
}

func TestBufferedRemainingCountsPending(t *testing.T) {
	b := NewBuffered(FromEdges(edgesN(10)), 4)
	if _, ok := b.Next(); !ok {
		t.Fatal("Next failed")
	}
	// One drawn, three sit in the buffer: inner reports 6, pending adds 3.
	if got := b.Remaining(); got != 9 {
		t.Errorf("Remaining after one draw = %d, want 9", got)
	}
}

func TestBufferedNextBatchDrainsPendingFirst(t *testing.T) {
	b := NewBuffered(FromEdges(edgesN(10)), 4)
	b.Next() // buffer holds edges 1..3
	var buf [8]graph.Edge
	if n := b.NextBatch(buf[:]); n != 3 {
		t.Fatalf("pending batch = %d, want 3", n)
	}
	if buf[0].Src != 1 || buf[2].Src != 3 {
		t.Fatalf("pending batch out of order: %v", buf[:3])
	}
	if n := b.NextBatch(buf[:]); n != 6 {
		t.Fatalf("pass-through batch = %d, want 6", n)
	}
}

func TestBufferedIdempotentWrap(t *testing.T) {
	b := NewBuffered(FromEdges(edgesN(3)), 2)
	if b2 := NewBuffered(b, 8); b2 != b {
		t.Error("NewBuffered re-wrapped an existing *Buffered")
	}
}

func TestFileNextBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	content := "# header\n1 2\n3 4\n\n5 6\n7 8\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Remaining(); got != 4 {
		t.Fatalf("Remaining = %d, want 4", got)
	}
	var buf [3]graph.Edge
	if n := f.NextBatch(buf[:]); n != 3 {
		t.Fatalf("first batch = %d, want 3", n)
	}
	want := []graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 5, Dst: 6}}
	for i, w := range want {
		if buf[i] != w {
			t.Errorf("batch[%d] = %v, want %v", i, buf[i], w)
		}
	}
	if n := f.NextBatch(buf[:]); n != 1 || buf[0] != (graph.Edge{Src: 7, Dst: 8}) {
		t.Fatalf("second batch = %d (%v), want 1 edge (7->8)", n, buf[0])
	}
	if n := f.NextBatch(buf[:]); n != 0 {
		t.Fatalf("batch after exhaustion = %d, want 0", n)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestFileNextBatchMalformedStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("1 2\nnot-an-edge\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf [8]graph.Edge
	if n := f.NextBatch(buf[:]); n != 1 {
		t.Fatalf("batch before malformed line = %d, want 1", n)
	}
	if f.Err() == nil {
		t.Error("malformed line did not set Err")
	}
	if n := f.NextBatch(buf[:]); n != 0 {
		t.Error("batch after error returned edges")
	}
}

// Chunks edge cases: z exceeding the edge count and empty input.
func TestChunksMoreChunksThanEdges(t *testing.T) {
	edges := edgesN(3)
	chunks := Chunks(edges, 8)
	if len(chunks) != 3 {
		t.Fatalf("Chunks(3 edges, z=8) returned %d chunks, want 3", len(chunks))
	}
	for i, ch := range chunks {
		if len(ch) != 1 {
			t.Errorf("chunk %d has %d edges, want 1", i, len(ch))
		}
	}
}

func TestChunksEmptyInput(t *testing.T) {
	if chunks := Chunks(nil, 4); chunks != nil {
		t.Errorf("Chunks(nil, 4) = %v, want nil", chunks)
	}
	if chunks := Chunks([]graph.Edge{}, 0); chunks != nil {
		t.Errorf("Chunks(empty, 0) = %v, want nil", chunks)
	}
}

func TestInterleaveEmptyAndOversizedBlocks(t *testing.T) {
	if out := Interleave(nil, 4); len(out) != 0 {
		t.Errorf("Interleave(nil, 4) returned %d edges", len(out))
	}
	edges := edgesN(3)
	out := Interleave(edges, 10)
	if len(out) != 3 {
		t.Fatalf("Interleave(3 edges, 10 blocks) returned %d edges", len(out))
	}
	seen := make(map[graph.Edge]bool)
	for _, e := range out {
		seen[e] = true
	}
	for _, e := range edges {
		if !seen[e] {
			t.Errorf("edge %v lost by oversized-block interleave", e)
		}
	}
}
