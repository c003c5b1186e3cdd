package graph_test

import (
	"path/filepath"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/stream"
)

// roundTrip saves g under name with graph.SaveFile and loads it back with
// stream.Load, the one reader of both formats: the edges must come back in
// order, and NumV is the largest endpoint plus one whatever the format. It
// returns the saved file's path.
func roundTrip(t *testing.T, name string, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := graph.SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile(%s): %v", name, err)
	}
	back, err := stream.Load(path)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if back.NumV != g.NumV || back.E() != g.E() {
		t.Fatalf("%s round trip: V=%d E=%d, want V=%d E=%d", name, back.NumV, back.E(), g.NumV, g.E())
	}
	for i := range g.Edges {
		if back.Edges[i] != g.Edges[i] {
			t.Fatalf("%s round trip edge %d: %v vs %v", name, i, back.Edges[i], g.Edges[i])
		}
	}
	return path
}

func TestTextRoundTrip(t *testing.T) {
	roundTrip(t, "g.txt", &graph.Graph{NumV: 4, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}})
}

func TestBinaryRoundTrip(t *testing.T) {
	roundTrip(t, "g.bin", &graph.Graph{NumV: 1000, Edges: []graph.Edge{{Src: 0, Dst: 999}, {Src: 42, Dst: 17}, {Src: 999, Dst: 0}}})
}

// TestSaveLoadFileFormats checks that SaveFile picks the format by the
// extension, ADWB for ".bin" and text otherwise, and that both load back.
func TestSaveLoadFileFormats(t *testing.T) {
	g := &graph.Graph{NumV: 6, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 4, Dst: 5}}}
	for _, tc := range []struct {
		name       string
		wantBinary bool
	}{{"g.txt", false}, {"g.bin", true}} {
		path := roundTrip(t, tc.name, g)
		isBinary, err := graph.IsBinary(path)
		if err != nil {
			t.Fatalf("IsBinary(%s): %v", tc.name, err)
		}
		if isBinary != tc.wantBinary {
			t.Errorf("SaveFile(%s) wrote ADWB = %v, want %v", tc.name, isBinary, tc.wantBinary)
		}
	}
}
