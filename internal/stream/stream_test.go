package stream

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/adwise-go/adwise/internal/graph"
)

func edgesN(n int) []graph.Edge {
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	return out
}

// drain reads s to exhaustion in batches of three edges.
func drain(t *testing.T, s Stream) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	var buf [3]graph.Edge
	for {
		n := s.NextBatch(buf[:])
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestSliceStreamOrderAndRemaining(t *testing.T) {
	edges := edgesN(5)
	s := FromEdges(edges)
	if got := s.Remaining(); got != 5 {
		t.Errorf("Remaining = %d, want 5", got)
	}
	got := drain(t, s)
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	if got := s.Remaining(); got != 0 {
		t.Errorf("Remaining after drain = %d, want 0", got)
	}
	if n := s.NextBatch(make([]graph.Edge, 1)); n != 0 {
		t.Errorf("NextBatch on exhausted stream = %d, want 0", n)
	}
}

func TestSliceStreamReset(t *testing.T) {
	s := FromEdges(edgesN(3))
	drain(t, s)
	s.Reset()
	if got := len(drain(t, s)); got != 3 {
		t.Errorf("drained %d edges after Reset, want 3", got)
	}
}

func TestFromGraph(t *testing.T) {
	g := &graph.Graph{NumV: 4, Edges: edgesN(3)}
	if got := len(drain(t, FromGraph(g))); got != 3 {
		t.Errorf("drained %d edges, want 3", got)
	}
}

func TestShuffledIsSeededPermutation(t *testing.T) {
	edges := edgesN(100)
	a := Shuffled(edges, 1)
	b := Shuffled(edges, 1)
	c := Shuffled(edges, 2)

	if len(a) != len(edges) {
		t.Fatalf("Shuffled changed length: %d", len(a))
	}
	sameAsB, sameAsC, sameAsOrig := true, true, true
	seen := make(map[graph.Edge]int)
	for i := range a {
		if a[i] != b[i] {
			sameAsB = false
		}
		if a[i] != c[i] {
			sameAsC = false
		}
		if a[i] != edges[i] {
			sameAsOrig = false
		}
		seen[a[i]]++
	}
	if !sameAsB {
		t.Error("same seed produced different shuffles")
	}
	if sameAsC {
		t.Error("different seeds produced identical shuffles")
	}
	if sameAsOrig {
		t.Error("shuffle left input order untouched (astronomically unlikely)")
	}
	for _, e := range edges {
		if seen[e] != 1 {
			t.Fatalf("edge %v appears %d times after shuffle", e, seen[e])
		}
	}
	// Input must be untouched.
	for i := range edges {
		if edges[i] != (graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}) {
			t.Fatal("Shuffled mutated its input")
		}
	}
}

func TestChunksPartitionInput(t *testing.T) {
	tests := []struct {
		n, z      int
		wantSizes []int
	}{
		{10, 3, []int{4, 3, 3}},
		{9, 3, []int{3, 3, 3}},
		{2, 5, []int{1, 1}},
		{5, 1, []int{5}},
		{4, 0, []int{4}}, // z <= 0 coerced to 1
	}
	for _, tc := range tests {
		chunks := Chunks(edgesN(tc.n), tc.z)
		if len(chunks) != len(tc.wantSizes) {
			t.Fatalf("Chunks(%d,%d) gave %d chunks, want %d", tc.n, tc.z, len(chunks), len(tc.wantSizes))
		}
		total := 0
		for i, ch := range chunks {
			if len(ch) != tc.wantSizes[i] {
				t.Errorf("Chunks(%d,%d)[%d] has %d edges, want %d", tc.n, tc.z, i, len(ch), tc.wantSizes[i])
			}
			total += len(ch)
		}
		if total != tc.n {
			t.Errorf("Chunks(%d,%d) covers %d edges", tc.n, tc.z, total)
		}
	}
}

// Property: chunks cover every edge exactly once in order, for any (n, z).
func TestQuickChunksCoverage(t *testing.T) {
	f := func(n uint8, z uint8) bool {
		edges := edgesN(int(n))
		chunks := Chunks(edges, int(z))
		var flat []graph.Edge
		for _, ch := range chunks {
			flat = append(flat, ch...)
		}
		if len(flat) != len(edges) {
			return false
		}
		for i := range flat {
			if flat[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFileStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	content := "# header\n0 1\n1 2\n\n% more\n2 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer fs.Close()
	if got := fs.Remaining(); got != 3 {
		t.Errorf("Remaining = %d, want 3 (line count pass)", got)
	}
	got := drain(t, fs)
	if len(got) != 3 || got[2] != (graph.Edge{Src: 2, Dst: 3}) {
		t.Errorf("drained %v", got)
	}
	if err := fs.Err(); err != nil {
		t.Errorf("Err = %v, want nil", err)
	}
}

func TestFileStreamMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("0 1\nbogus\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer fs.Close()
	got := drain(t, fs)
	if len(got) != 1 {
		t.Errorf("drained %d edges before malformed line, want 1", len(got))
	}
	if fs.Err() == nil {
		t.Error("Err = nil after malformed line, want parse error")
	}
}

func TestFileStreamMissing(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("OpenFile on missing path succeeded, want error")
	}
}
