package stream

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// Fuzz targets for both ingest decoders. The seed corpus mirrors the
// fixtures the deterministic tests use: well-formed files, comments and
// blank lines, malformed lines, truncated and corrupt headers.

func FuzzLineParser(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n2 3\n"))
	f.Add([]byte("# header\n0 1\n% comment\n\n1 2\t3\n"))
	f.Add([]byte("0 1\nbroken\n2 3\n"))
	f.Add([]byte("0 1\n1 2\nbroken line here no\n2 3\n3 4\n"))
	f.Add([]byte("9999999999999999999 1\n"))
	f.Add([]byte("4294967296 0\n")) // src one past the 32-bit id space
	f.Add([]byte("0 1"))            // no trailing newline
	f.Add([]byte("  7   9   extra fields 12\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The counting pass and the parser must agree: on a clean parse the
		// edge count equals the counted data lines and Remaining hits 0; on
		// a failed parse Remaining is zeroed.
		count, err := countDataLinesIn(bytes.NewReader(data))
		if err != nil {
			t.Skip() // reader over bytes cannot fail; defensive
		}
		parse := func(batch int) ([]graph.Edge, error) {
			p := newLineParser(bytes.NewReader(data), count)
			buf := make([]graph.Edge, batch)
			var got []graph.Edge
			for {
				n := p.NextBatch(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if p.err != nil && p.Remaining() != 0 {
				t.Fatalf("Remaining = %d after parse error %v, want 0", p.Remaining(), p.err)
			}
			if p.err == nil {
				if int64(len(got)) != count {
					t.Fatalf("clean parse yielded %d edges, counting pass says %d", len(got), count)
				}
				if p.Remaining() != 0 {
					t.Fatalf("Remaining = %d after clean exhaustion, want 0", p.Remaining())
				}
			}
			return got, p.err
		}
		gotBig, errBig := parse(512)
		gotOne, errOne := parse(1)
		if !slices.Equal(gotBig, gotOne) || (errBig == nil) != (errOne == nil) {
			t.Fatalf("batch-size dependence: batch=512 -> (%d edges, %v), batch=1 -> (%d edges, %v)",
				len(gotBig), errBig, len(gotOne), errOne)
		}
		// The parser splits lines where strings.Fields does (the oracle has
		// no line limit).
		if want, wantOK := fieldsParse(data); len(data) < maxLineBytes && (!slices.Equal(gotBig, want) || (errBig == nil) != wantOK) {
			t.Fatalf("parser -> (%v, %v), strings.Fields oracle -> (%v, ok %v)", gotBig, errBig, want, wantOK)
		}

		// The parser holds its range to the count it was given: with one
		// edge more or one fewer expected than the data holds, the parse
		// must fail rather than end cleanly.
		for _, off := range []int64{-1, 1} {
			if count+off < 0 {
				continue
			}
			p := newLineParser(bytes.NewReader(data), count+off)
			buf := make([]graph.Edge, 7)
			for p.NextBatch(buf) > 0 {
			}
			if p.err == nil {
				t.Fatalf("parsed cleanly against a count of %d; the data holds %d edges", count+off, count)
			}
			if p.Remaining() != 0 {
				t.Fatalf("Remaining = %d after a count mismatch, want 0", p.Remaining())
			}
		}
	})
}

// fieldsParse is the oracle for FuzzLineParser: the text edge-list grammar
// with lines split by strings.Fields. It returns the edges before the first
// malformed line and whether there was none.
func fieldsParse(data []byte) ([]graph.Edge, bool) {
	var edges []graph.Edge
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return edges, false
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return edges, false
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return edges, false
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)})
	}
	return edges, true
}

func fuzzBinarySeed(edges []graph.Edge) []byte {
	var b bytes.Buffer
	_ = graph.WriteBinary(&b, &graph.Graph{NumV: 16, Edges: edges})
	return b.Bytes()
}

func FuzzBinaryFile(f *testing.F) {
	valid := fuzzBinarySeed([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                     // torn trailing record
	f.Add(valid[:graph.BinaryHeaderSize])           // header only, declares 3 records
	f.Add(append(append([]byte{}, valid...), 0xff)) // trailing garbage
	f.Add([]byte("ADWB"))
	f.Add([]byte("ADWBxxxxxxxxxxxxxxxx"))
	f.Add([]byte("0 1\n1 2\n"))        // text masquerading as binary input
	f.Add(binaryHeaderBytes(1, 1<<40)) // hostile edge count, no data
	f.Add(binaryHeaderBytes(1<<40, 1)) // vertex count past the id space
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The header check runs on every input, ADWB magic or not.
		_, planErr := PlanBinary(path, 1)
		if format, err := Sniff(path); err != nil || format != FormatBinary {
			if planErr == nil {
				t.Fatal("planned a file without the ADWB magic as binary")
			}
			return // Open streams it as text
		}
		bf, err := Open(path)
		if err != nil {
			if planErr == nil {
				t.Fatalf("planned a file that Open rejects: %v", err)
			}
			return // rejected at validation — the common, correct outcome
		}
		defer bf.Close()
		// The open validated the header against the file size, so the
		// stream must drain cleanly to exactly the declared record count.
		want := bf.Remaining()
		if (planErr == nil) != (want > 0) {
			t.Fatalf("Open accepted %d records, but PlanBinary(path, 1) = %v", want, planErr)
		}
		var got int64
		buf := make([]graph.Edge, 64)
		for {
			n := bf.NextBatch(buf)
			if n == 0 {
				break
			}
			got += int64(n)
		}
		if err := bf.Err(); err != nil {
			t.Fatalf("validated binary file failed mid-stream: %v", err)
		}
		if got != want {
			t.Fatalf("drained %d records, header declared %d", got, want)
		}

		// Segments must partition exactly the same records.
		if want >= 2 {
			ranges, err := PlanBinary(path, 2)
			if err != nil {
				t.Fatalf("open succeeded but planning failed: %v", err)
			}
			var segTotal int64
			for _, r := range ranges {
				seg, err := OpenSegment(r)
				if err != nil {
					t.Fatal(err)
				}
				for {
					n := seg.NextBatch(buf)
					if n == 0 {
						break
					}
					segTotal += int64(n)
				}
				if err := seg.Err(); err != nil {
					t.Fatalf("segment of validated file failed: %v", err)
				}
				seg.Close()
			}
			if segTotal != want {
				t.Fatalf("segments drained %d records, header declared %d", segTotal, want)
			}
		}
	})
}

// binaryHeaderBytes builds a bare ADWB header for hostile-header seeds.
func binaryHeaderBytes(numV, numE uint64) []byte {
	hdr := make([]byte, graph.BinaryHeaderSize)
	copy(hdr, "ADWB")
	binary.LittleEndian.PutUint64(hdr[4:12], numV)
	binary.LittleEndian.PutUint64(hdr[12:20], numE)
	return hdr
}
