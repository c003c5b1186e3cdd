package stream

import (
	"fmt"
	"io"
	"os"

	"github.com/adwise-go/adwise/internal/graph"
)

// Binary (ADWB) ingest: every edge is one fixed 8-byte record behind a
// validated header (see internal/graph/binary.go), so the fast format of
// the bench harness streams behind the same Stream/Errer surface as text
// edge lists — and, unlike text, its segment planning needs no counting
// pass at all: record arithmetic on the header splits the data region into
// z exact ranges in O(1), however large the file.

// recordReader is the fixed-record decoding core shared by the whole-file
// and segment binary streams: a bounded reader over some record region
// plus the exact remaining count established from the header. Batches are
// decoded zero-copy — records are read straight into the destination edge
// slice (graph.ReadRecords). It implements the stream error contract: a
// read failure or truncation zeroes the remainder and is reported by Err.
type recordReader struct {
	r         io.Reader
	remaining int64
	err       error
}

// fail records the stream error and zeroes the remainder, mirroring
// lineParser: edges past the failure point will never arrive, and
// condition (C2) must not budget latency for them.
func (d *recordReader) fail(err error) {
	d.err = err
	d.remaining = 0
}

// NextBatch implements Stream: up to len(dst) records decoded in one
// bounded read, directly into dst's backing memory.
func (d *recordReader) NextBatch(dst []graph.Edge) int {
	if d.err != nil || d.remaining == 0 || len(dst) == 0 {
		return 0
	}
	if int64(len(dst)) > d.remaining {
		dst = dst[:d.remaining]
	}
	n, err := graph.ReadRecords(d.r, dst)
	d.remaining -= int64(n)
	if err != nil {
		// The record region was size-validated at open, so a short read
		// means the file changed (or the medium failed) mid-stream.
		missing := d.remaining
		d.fail(fmt.Errorf("stream: reading edge records (%d still expected): %w", missing, err))
	}
	return n
}

// Remaining implements Stream. After a stream error it reports 0: a failed
// stream has no usable remainder.
func (d *recordReader) Remaining() int64 { return d.remaining }

// Err implements Errer: the first error encountered while streaming, or
// nil on clean exhaustion.
func (d *recordReader) Err() error { return d.err }

// BinaryFile streams a record region of an ADWB binary edge-list file
// without materialising the edge list — the binary counterpart of File and
// Segment in one type, since with fixed records the whole file is just the
// segment [DataStart, DataEnd). OpenBinaryFile streams the whole region;
// OpenBinarySegment streams one planned sub-range.
type BinaryFile struct {
	f *os.File
	recordReader
}

// OpenBinaryFile opens path as an edge stream over its full record region.
// The header is validated against the file size up front
// (graph.StatBinaryFile, on the same handle the stream reads), so
// Remaining is exact with no counting pass.
func OpenBinaryFile(path string) (*BinaryFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening %s: %w", path, err)
	}
	bf, err := openBinaryHandle(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return bf, nil
}

// openBinaryHandle validates the header through the already-open handle
// and streams its whole record region.
func openBinaryHandle(f *os.File) (*BinaryFile, error) {
	bi, err := graph.StatBinaryFile(f)
	if err != nil {
		return nil, err
	}
	return binaryRangeOver(f, bi.DataStart(), bi.DataEnd()), nil
}

// OpenBinarySegment opens r's byte range of an ADWB file as an edge
// stream. The range must be record-aligned and lie inside the file's
// record region, which is revalidated against the freshly opened handle —
// a plan gone stale against a swapped file fails loudly here rather than
// decoding garbage. Remaining is exact by construction (Edges is pure
// record arithmetic), with no per-segment counting pass.
func OpenBinarySegment(r Range) (*BinaryFile, error) {
	if r.Start < graph.BinaryHeaderSize || r.End < r.Start {
		return nil, fmt.Errorf("stream: invalid binary segment range [%d,%d) of %s", r.Start, r.End, r.Path)
	}
	if (r.End-r.Start)%graph.BinaryRecordSize != 0 || (r.Start-graph.BinaryHeaderSize)%graph.BinaryRecordSize != 0 {
		return nil, fmt.Errorf("stream: binary segment range [%d,%d) of %s not record-aligned", r.Start, r.End, r.Path)
	}
	if want := (r.End - r.Start) / graph.BinaryRecordSize; r.Edges != want {
		return nil, fmt.Errorf("stream: binary segment range [%d,%d) holds %d records, planned %d", r.Start, r.End, want, r.Edges)
	}
	f, err := os.Open(r.Path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening %s: %w", r.Path, err)
	}
	bi, err := graph.StatBinaryFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if r.End > bi.DataEnd() {
		f.Close()
		return nil, fmt.Errorf("stream: binary segment range [%d,%d) extends past record region of %s (ends at %d)",
			r.Start, r.End, r.Path, bi.DataEnd())
	}
	return binaryRangeOver(f, r.Start, r.End), nil
}

func binaryRangeOver(f *os.File, start, end int64) *BinaryFile {
	return &BinaryFile{
		f: f,
		recordReader: recordReader{
			r:         io.NewSectionReader(f, start, end-start),
			remaining: (end - start) / graph.BinaryRecordSize,
		},
	}
}

// Close releases the underlying file handle.
func (bf *BinaryFile) Close() error {
	if err := bf.f.Close(); err != nil {
		return fmt.Errorf("stream: closing binary stream: %w", err)
	}
	return nil
}

// PlanBinary splits the ADWB file at path into z record-aligned byte
// ranges by pure arithmetic on the validated header: no counting pass, no
// data read — O(1) regardless of file size. Range sizes follow the
// stream.Chunks distribution (sizes differ by at most one, larger ranges
// first), so a binary segmented run consumes exactly the chunks the
// materialised spotlight path would. Fewer records than z is an error,
// mirroring the text planner's degenerate-input check.
func PlanBinary(path string, z int) ([]Range, error) {
	if z < 1 {
		return nil, fmt.Errorf("stream: plan needs z >= 1, got %d", z)
	}
	bi, err := graph.StatBinary(path)
	if err != nil {
		return nil, err
	}
	if bi.NumE < uint64(z) {
		return nil, fmt.Errorf("stream: %s has %d edge records, cannot feed %d segment loaders", path, bi.NumE, z)
	}
	base, extra := int64(bi.NumE)/int64(z), int64(bi.NumE)%int64(z)
	ranges := make([]Range, 0, z)
	offset := bi.DataStart()
	for i := 0; i < z; i++ {
		n := base
		if int64(i) < extra {
			n++
		}
		end := offset + n*graph.BinaryRecordSize
		ranges = append(ranges, Range{
			Path:   path,
			Format: FormatBinary,
			Start:  offset,
			End:    end,
			Edges:  n,
		})
		offset = end
	}
	return ranges, nil
}
