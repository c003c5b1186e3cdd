package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// Binary (ADWB) edge-list format: magic "ADWB", little-endian uint64 vertex
// count, little-endian uint64 edge count, then one fixed 8-byte record per
// edge (two little-endian uint32s: src, dst). ~4x smaller and ~10x faster
// to load than text, and — because every record has the same width — a
// byte range of the data region is computable from the header alone, which
// is what makes segmented binary loading plannable in O(1).
//
// This file owns everything that knows the record layout: header encoding
// and validation (StatBinary), raw record decoding (ReadRecords), and the
// writer (WriteBinary). The one reader, in internal/stream, builds on
// StatBinaryFile + ReadRecords and never duplicates the format.

const binaryMagic = "ADWB"

const (
	// BinaryHeaderSize is the byte length of the ADWB preamble: 4 magic
	// bytes plus two uint64s (vertex count, edge count).
	BinaryHeaderSize = 4 + 8 + 8
	// BinaryRecordSize is the byte length of one edge record: two uint32s.
	BinaryRecordSize = 8
)

// maxBinaryEdges bounds the declared edge count (16 Gi edges) as a sanity
// check against corrupt headers; StatBinaryFile additionally verifies the
// count against the actual file size.
const maxBinaryEdges = 1 << 34

// An Edge must be exactly one ADWB record — Src in the first four bytes,
// Dst in the last four — for the zero-copy record decode to be valid. Both
// declarations fail to compile if the struct layout drifts.
var (
	_ [BinaryRecordSize]byte = [unsafe.Sizeof(Edge{})]byte{}
	_ [4]byte                = [unsafe.Offsetof(Edge{}.Dst)]byte{}
)

// hostLittleEndian reports whether this host's native byte order matches
// the ADWB on-disk order, making record reads a straight memory copy.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x01, 0x00}) == 1

// BinaryInfo is the decoded ADWB header: what a loader knows about the
// file before touching the data region.
type BinaryInfo struct {
	// NumV is the declared vertex count.
	NumV uint64
	// NumE is the declared edge count; the data region holds exactly this
	// many fixed-size records.
	NumE uint64
}

// DataStart returns the byte offset of the first edge record.
func (bi BinaryInfo) DataStart() int64 { return BinaryHeaderSize }

// DataEnd returns the byte offset one past the last edge record — for a
// well-formed file, the file size.
func (bi BinaryInfo) DataEnd() int64 {
	return BinaryHeaderSize + int64(bi.NumE)*BinaryRecordSize
}

// decodeBinaryHeader parses and bounds-checks the BinaryHeaderSize-byte
// preamble. It validates everything checkable without the file size.
func decodeBinaryHeader(hdr []byte) (BinaryInfo, error) {
	if len(hdr) < BinaryHeaderSize {
		return BinaryInfo{}, fmt.Errorf("graph: short binary header: %d bytes, want %d", len(hdr), BinaryHeaderSize)
	}
	if string(hdr[:4]) != binaryMagic {
		return BinaryInfo{}, fmt.Errorf("graph: bad magic %q, want %q", hdr[:4], binaryMagic)
	}
	bi := BinaryInfo{
		NumV: binary.LittleEndian.Uint64(hdr[4:12]),
		NumE: binary.LittleEndian.Uint64(hdr[12:20]),
	}
	if bi.NumV > math.MaxUint32+1 {
		return BinaryInfo{}, fmt.Errorf("graph: vertex count %d exceeds 32-bit id space", bi.NumV)
	}
	if bi.NumE > maxBinaryEdges {
		return BinaryInfo{}, fmt.Errorf("graph: implausible edge count %d", bi.NumE)
	}
	return bi, nil
}

// StatBinary reads and validates the ADWB header of the file at path: the
// magic, the declared counts, and — the check a hostile or truncated
// header cannot pass — that the declared edge count matches the actual
// file size exactly. It reads BinaryHeaderSize bytes and stats the file;
// the data region is never touched, so callers may plan byte ranges over
// arbitrarily large files in O(1).
func StatBinary(path string) (BinaryInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return BinaryInfo{}, fmt.Errorf("graph: opening %s: %w", path, err)
	}
	defer f.Close()
	return StatBinaryFile(f)
}

// StatBinaryFile is StatBinary over an already-open file, so one handle
// can serve format sniff, header validation, and streaming — the decision
// cannot race a concurrent file swap. The read position is left just past
// the header (BinaryInfo.DataStart); callers that address the record
// region by absolute offset need no further seek.
func StatBinaryFile(f *os.File) (BinaryInfo, error) {
	st, err := f.Stat()
	if err != nil {
		return BinaryInfo{}, fmt.Errorf("graph: sizing %s: %w", f.Name(), err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return BinaryInfo{}, fmt.Errorf("graph: rewinding %s: %w", f.Name(), err)
	}
	var hdr [BinaryHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return BinaryInfo{}, fmt.Errorf("graph: reading binary header of %s: %w", f.Name(), err)
	}
	bi, err := decodeBinaryHeader(hdr[:])
	if err != nil {
		return BinaryInfo{}, fmt.Errorf("graph: %s: %w", f.Name(), err)
	}
	if st.Size() != bi.DataEnd() {
		return BinaryInfo{}, fmt.Errorf("graph: %s declares %d edges (%d bytes) but file holds %d bytes",
			f.Name(), bi.NumE, bi.DataEnd(), st.Size())
	}
	return bi, nil
}

// recordBytes returns the backing memory of dst as raw ADWB record bytes.
// Valid because an Edge is exactly one record (asserted above); on a
// little-endian host the bytes are already in on-disk order.
func recordBytes(dst []Edge) []byte {
	if len(dst) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)*BinaryRecordSize)
}

// decodeRecordsInPlace fixes the byte order of records that were read raw
// into dst. A no-op on little-endian hosts — the read itself was the
// decode.
func decodeRecordsInPlace(dst []Edge) {
	if hostLittleEndian {
		return
	}
	b := recordBytes(dst)
	for i := range dst {
		rec := b[i*BinaryRecordSize : i*BinaryRecordSize+BinaryRecordSize]
		dst[i] = Edge{
			Src: VertexID(binary.LittleEndian.Uint32(rec[0:4])),
			Dst: VertexID(binary.LittleEndian.Uint32(rec[4:8])),
		}
	}
}

// ReadRecords reads up to len(dst) consecutive ADWB edge records from r
// straight into dst's backing memory — zero-copy on little-endian hosts —
// and returns the number of complete records decoded. The error is nil on
// a full read, io.EOF when the stream ended cleanly before the first byte,
// and io.ErrUnexpectedEOF (wrapped, when the stream ends inside a record)
// or the underlying read error otherwise. dst entries past the returned
// count are garbage.
func ReadRecords(r io.Reader, dst []Edge) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	n, err := io.ReadFull(r, recordBytes(dst))
	full := n / BinaryRecordSize
	decodeRecordsInPlace(dst[:full])
	if torn := n % BinaryRecordSize; torn != 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return full, fmt.Errorf("graph: torn edge record: %d trailing bytes, want %d: %w",
			torn, BinaryRecordSize, io.ErrUnexpectedEOF)
	}
	return full, err
}

// WriteBinary writes g in the compact binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	var hdr [BinaryHeaderSize]byte
	copy(hdr[:4], binaryMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(g.NumV))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(g.Edges)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("graph: writing header: %w", err)
	}
	if hostLittleEndian {
		// The edge slice already is the on-disk record region: one write,
		// no intermediate buffer.
		if _, err := w.Write(recordBytes(g.Edges)); err != nil {
			return fmt.Errorf("graph: writing edge records: %w", err)
		}
		return nil
	}
	bw := bufio.NewWriter(w)
	var rec [BinaryRecordSize]byte
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(e.Src))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(e.Dst))
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("graph: writing edge record: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing binary graph: %w", err)
	}
	return nil
}

// SniffBinary reports whether the open file begins with the binary
// edge-list magic, leaving the read position at the start of the file.
// stream.Open sniffs and reads through one handle with it, so the format
// decision cannot race a concurrent file swap.
func SniffBinary(f *os.File) (bool, error) {
	magic := make([]byte, len(binaryMagic))
	n, err := io.ReadFull(f, magic)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return false, fmt.Errorf("graph: sniffing %s: %w", f.Name(), err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return false, fmt.Errorf("graph: rewinding %s: %w", f.Name(), err)
	}
	return n == len(binaryMagic) && string(magic) == binaryMagic, nil
}

// IsBinary reports whether path begins with the binary edge-list magic.
// Path-based entry points that cannot keep a handle (stream.PlanFile,
// whose ranges are reopened per segment) use this; handle-based readers
// prefer SniffBinary.
func IsBinary(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("graph: opening %s: %w", path, err)
	}
	defer f.Close()
	return SniffBinary(f)
}
