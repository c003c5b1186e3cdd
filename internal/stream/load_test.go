package stream

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

func TestLoadText(t *testing.T) {
	g, err := Load(writeFile(t, `# comment line
% konect-style comment

0 1
1	2 999
3 4 some trailing junk
`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	if len(g.Edges) != len(want) {
		t.Fatalf("edges = %v, want %v", g.Edges, want)
	}
	for i := range want {
		if g.Edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", g.Edges, want)
		}
	}
	if g.NumV != 5 {
		t.Errorf("NumV = %d, want 5", g.NumV)
	}
}

func TestLoadTextErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"single field", "0\n"},
		{"non-numeric", "a b\n"},
		{"negative", "-1 2\n"},
		{"overflow id", "4294967296 0\n"},
		{"empty input", ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(writeFile(t, tc.in)); err == nil {
				t.Errorf("Load(%q) succeeded, want error", tc.in)
			}
		})
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("Load on a missing file succeeded, want error")
	}
}

func TestLoadRejectsCorruptBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveFile(path, &graph.Graph{NumV: 4, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"bad magic", []byte("NOPE\x00\x00\x00\x00")}, // read as text, and malformed
		{"truncated header", data[:5]},
		{"truncated records", binaryHeaderBytes(2, 5)},
		{"truncated", data[:len(data)-graph.BinaryRecordSize]},
		{"torn record", data[:len(data)-3]},
		{"padded", append(append([]byte{}, data...), 0xab)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "bad.bin")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(p); err == nil {
				t.Error("Load accepted the file")
			}
		})
	}
}
