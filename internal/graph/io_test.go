package graph

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestStatBinaryValidatesSize(t *testing.T) {
	dir := t.TempDir()
	g := &Graph{NumV: 4, Edges: []Edge{{0, 1}, {1, 2}, {2, 3}}}
	path := filepath.Join(dir, "g.bin")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	bi, err := StatBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if bi.NumV != 4 || bi.NumE != 3 {
		t.Fatalf("StatBinary = %+v, want NumV=4 NumE=3", bi)
	}
	if bi.DataStart() != BinaryHeaderSize || bi.DataEnd() != BinaryHeaderSize+3*BinaryRecordSize {
		t.Fatalf("record region [%d,%d), want [%d,%d)", bi.DataStart(), bi.DataEnd(),
			BinaryHeaderSize, BinaryHeaderSize+3*BinaryRecordSize)
	}

	// Truncated and padded copies must be rejected by the size check.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated": data[:len(data)-BinaryRecordSize],
		"padded":    append(append([]byte{}, data...), 0xab),
	} {
		p := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := StatBinary(p); err == nil {
			t.Errorf("StatBinary accepted %s file", name)
		}
	}
	if _, err := StatBinary(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("StatBinary on missing file succeeded")
	}
}

func TestReadRecords(t *testing.T) {
	g := &Graph{NumV: 8, Edges: []Edge{{0, 1}, {2, 3}, {4, 5}, {6, 7}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	records := buf.Bytes()[BinaryHeaderSize:]

	// Exact read.
	dst := make([]Edge, 4)
	n, err := ReadRecords(bytes.NewReader(records), dst)
	if n != 4 || err != nil {
		t.Fatalf("ReadRecords = %d, %v; want 4, nil", n, err)
	}
	for i := range g.Edges {
		if dst[i] != g.Edges[i] {
			t.Fatalf("record %d = %v, want %v", i, dst[i], g.Edges[i])
		}
	}

	// Short read: two complete records available, four requested.
	n, err = ReadRecords(bytes.NewReader(records[:2*BinaryRecordSize]), dst)
	if n != 2 || err == nil {
		t.Fatalf("short ReadRecords = %d, %v; want 2 and an error", n, err)
	}

	// Torn record: complete records decode, the tear is an error.
	n, err = ReadRecords(bytes.NewReader(records[:BinaryRecordSize+3]), dst)
	if n != 1 || err == nil {
		t.Fatalf("torn ReadRecords = %d, %v; want 1 and an error", n, err)
	}
	if dst[0] != g.Edges[0] {
		t.Fatalf("record before the tear = %v, want %v", dst[0], g.Edges[0])
	}

	// Empty destination and clean EOF.
	if n, err := ReadRecords(bytes.NewReader(records), nil); n != 0 || err != nil {
		t.Fatalf("empty-dst ReadRecords = %d, %v", n, err)
	}
	if n, err := ReadRecords(bytes.NewReader(nil), dst); n != 0 || err != io.EOF {
		t.Fatalf("EOF ReadRecords = %d, %v; want 0, io.EOF", n, err)
	}
}
