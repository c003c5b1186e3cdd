package stream

import (
	"fmt"
	"os"

	"github.com/adwise-go/adwise/internal/graph"
)

// Format-agnostic ingest entry points. Every consumer that streams a graph
// file — the spotlight executor, the CLIs, the bench harness — goes through
// Open (one stream over the whole file) or PlanFile + OpenSegment (z
// disjoint ranges), and the format is a dispatch decision made here, once.
// A new on-disk representation (mmap, remote byte ranges) is a new Format
// plus readers behind the same FileStream surface, not a new special case
// in every caller.

// Format identifies the on-disk encoding of a graph file or of a planned
// Range. The zero value is FormatText, so hand-built text Ranges keep
// their historical semantics.
type Format uint8

const (
	// FormatText is a SNAP-style text edge list: one "src dst" line per
	// edge, '#'/'%' comments. Planning needs a counting pass.
	FormatText Format = iota
	// FormatBinary is the fixed-record ADWB encoding. Planning is pure
	// record arithmetic on the header — no data read.
	FormatBinary
)

// String renders the format name.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("format(%d)", uint8(f))
	}
}

// FileStream is the surface every file-backed edge stream shares: batched
// streaming, the stream error contract, and a close. Segment and
// BinaryFile implement it; consumers dispatch on nothing else.
type FileStream interface {
	Stream
	Errer
	Close() error
}

var (
	_ FileStream = (*Segment)(nil)
	_ FileStream = (*BinaryFile)(nil)
)

// Sniff reports the format of the graph file at path.
func Sniff(path string) (Format, error) {
	bin, err := graph.IsBinary(path)
	if err != nil {
		return FormatText, err
	}
	if bin {
		return FormatBinary, nil
	}
	return FormatText, nil
}

// Open opens path as a single edge stream over the whole file, sniffing
// the format: an ADWB file streams as a BinaryFile over its record region,
// everything else as a text Segment over the whole file. One handle serves
// the sniff and the reader, so the format decision cannot race a
// concurrent file swap. Remaining is exact either way — from the validated
// header for binary, from the counting pass for text.
func Open(path string) (FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening %s: %w", path, err)
	}
	bin, err := graph.SniffBinary(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	var (
		fs   FileStream
		oerr error
	)
	if bin {
		fs, oerr = openBinaryHandle(f)
	} else {
		fs, oerr = openTextFile(f)
	}
	if oerr != nil {
		f.Close()
		return nil, oerr
	}
	return fs, nil
}

// Load reads the graph file at path into memory through the reader Open
// returns, so both formats load alike: the vertex universe is the largest
// endpoint plus one (graph.New). An ADWB header's vertex count is
// validated but does not widen it.
func Load(path string) (*graph.Graph, error) {
	s, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	edges, err := Collect(s)
	if err != nil {
		return nil, fmt.Errorf("stream: loading %s: %w", path, err)
	}
	return graph.New(edges)
}

// PlanFile splits the graph file at path into z disjoint ranges for z
// segment loaders, sniffing the format: text files take the counting pass
// of Plan; ADWB files are planned by record arithmetic alone (PlanBinary)
// — the data region is never read. Every returned Range carries its
// Format, so OpenSegment dispatches without re-sniffing.
func PlanFile(path string, z int) ([]Range, error) {
	format, err := Sniff(path)
	if err != nil {
		return nil, err
	}
	if format == FormatBinary {
		return PlanBinary(path, z)
	}
	return Plan(path, z)
}
