package stream

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Segmented byte-range loading (paper §II Figure 3, §III-D): z loader
// instances each stream a disjoint chunk of one large graph file. Plan
// splits the file into z byte ranges aligned to line boundaries in a
// single counting pass — the same pass that makes Remaining exact for
// condition (C2) — and Segment streams one range via seek + bounded read
// behind the same FileStream interface as File. No instance ever holds the
// full edge list, which is what lets z loaders cover a graph file far
// larger than any one machine's memory.

// Range is one planned byte range of an edge-list file: the half-open
// interval [Start, End) aligned to an edge boundary (a line start for
// text, a record boundary for binary) and holding exactly Edges edges.
type Range struct {
	// Path is the edge-list file the range indexes into.
	Path string
	// Format is the file encoding the range was planned against; it
	// selects the reader OpenSegment builds. The zero value is FormatText.
	Format Format
	// Start and End delimit the byte range [Start, End). Start is always
	// an edge boundary; End is the next segment's Start (or the end of the
	// edge region).
	Start, End int64
	// Edges is the number of edges in the range — counted with the text
	// parser's own shape test, or derived by record arithmetic for binary
	// — so a segment's Remaining is exact.
	Edges int64
}

// Plan splits the text edge-list file at path into z byte ranges aligned
// to line boundaries. (Format-agnostic callers use PlanFile, which
// dispatches here for text and to PlanBinary's counting-free record
// arithmetic for ADWB.) The byte targets are size·i/z; each boundary snaps forward
// to the next line start, so a target that falls mid-line never splits an
// edge, and a boundary is deferred past its target until the range it
// closes holds at least one data line. The single pass also counts the
// data lines per range. When line lengths are so skewed that the
// byte-proportional split would still leave some range without a data line
// (a loader that streams nothing), Plan falls back to a second pass that
// splits by data-line count instead — same sizes as stream.Chunks — so any
// file with at least z data lines plans successfully. Fewer data lines
// than z is an error, mirroring the materialised executor's
// degenerate-input check.
func Plan(path string, z int) ([]Range, error) {
	if z < 1 {
		return nil, fmt.Errorf("stream: plan needs z >= 1, got %d", z)
	}
	size, err := fileSize(path)
	if err != nil {
		return nil, err
	}
	// Byte-proportional pass: close the live range at the first line start
	// at or past its target size·(i+1)/z, provided it holds a data line.
	var total int64
	ranges, err := planScan(path, z, func(p *planState) bool {
		return p.offset >= size*int64(len(p.ranges)+1)/int64(z)
	}, &total)
	if err != nil {
		return nil, err
	}
	if total < int64(z) {
		return nil, fmt.Errorf("stream: %s has %d data lines, cannot feed %d segment loaders", path, total, z)
	}
	for _, r := range ranges {
		if r.Edges == 0 {
			// Skewed alignment (e.g. one giant line spanning several byte
			// targets): re-plan by data-line count, which cannot leave a
			// range empty when total >= z.
			return planByCount(path, z, total)
		}
	}
	return ranges, nil
}

// planByCount splits by data-line count with stream.Chunks' size
// distribution (sizes differ by at most one, larger chunks first): the
// live range closes at the first line start after it reaches its quota.
func planByCount(path string, z int, total int64) ([]Range, error) {
	base, extra := total/int64(z), total%int64(z)
	quota := func(i int) int64 {
		q := base
		if int64(i) < extra {
			q++
		}
		return q
	}
	return planScan(path, z, func(p *planState) bool {
		return p.cur.Edges >= quota(len(p.ranges))
	}, new(int64))
}

// planState is the scan position planScan exposes to its boundary rule.
type planState struct {
	ranges []Range
	cur    Range
	offset int64 // byte offset of the line start under consideration
}

// planScan is the shared planning pass: one sequential read of path that
// counts data lines into the live range and closes it at a line start when
// shouldClose says so (never empty — a close additionally requires at
// least one data line). It returns exactly z ranges tiling [0, size] and
// accumulates the file's data-line count into total.
func planScan(path string, z int, shouldClose func(*planState) bool, total *int64) ([]Range, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening %s for planning: %w", path, err)
	}
	defer f.Close()

	p := planState{ranges: make([]Range, 0, z), cur: Range{Path: path}}
	closeRange := func(end int64) {
		p.cur.End = end
		p.ranges = append(p.ranges, p.cur)
		p.cur = Range{Path: path, Start: end}
	}

	br := bufio.NewReaderSize(f, 1<<20)
	for {
		line, rerr := readLine(br)
		if len(line) > 0 {
			if len(p.ranges) < z-1 && p.cur.Edges > 0 && shouldClose(&p) {
				closeRange(p.offset)
			}
			if isDataLine(line) {
				p.cur.Edges++
				*total++
			}
			p.offset += int64(len(line))
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("stream: planning %s: %w", path, rerr)
		}
	}
	// EOF: close the live range and pad to exactly z ranges tiling the
	// file, so callers can validate per-range counts uniformly.
	for len(p.ranges) < z {
		closeRange(p.offset)
	}
	return p.ranges, nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("stream: sizing %s: %w", path, err)
	}
	return st.Size(), nil
}

// Segment streams the edges of a text edge list without materialising the
// graph in memory — the loading model of Figure 3 in the paper, where "the
// graph data is stored in a large file ... the streaming partitioning
// algorithm loads the data as a stream of graph edges". OpenSegment streams
// one planned byte range: seek to Start, then a read bounded at End.
// Ranges from the same plan never overlap, so z concurrent segments cover
// the file exactly once. Open streams a whole file as one Segment whose
// count comes from a line count pass, exactly as the paper suggests for
// condition (C2). Either way the stream fails if its bytes hold more or
// fewer edges than were counted.
type Segment struct {
	f *os.File
	lineParser
}

// OpenSegment opens r's byte range as an edge stream, dispatching on the
// range's Format: text ranges get a line-parsing Segment, binary ranges a
// fixed-record BinaryFile. Remaining is exact from the plan — no
// per-segment counting pass either way.
func OpenSegment(r Range) (FileStream, error) {
	// Concrete results pass through an error check before entering the
	// interface return, so a failed open yields a truly nil FileStream —
	// never an interface wrapping a typed nil pointer.
	switch r.Format {
	case FormatText:
		s, err := openTextSegment(r)
		if err != nil {
			return nil, err
		}
		return s, nil
	case FormatBinary:
		s, err := OpenBinarySegment(r)
		if err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("stream: segment range of %s has unknown format %v", r.Path, r.Format)
	}
}

func openTextSegment(r Range) (*Segment, error) {
	if r.Start < 0 || r.End < r.Start || r.Edges < 0 {
		return nil, fmt.Errorf("stream: invalid segment range [%d,%d) of %s holding %d edges", r.Start, r.End, r.Path, r.Edges)
	}
	f, err := os.Open(r.Path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening segment of %s: %w", r.Path, err)
	}
	if _, err := f.Seek(r.Start, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("stream: seeking to byte %d of %s: %w", r.Start, r.Path, err)
	}
	return &Segment{
		f:          f,
		lineParser: newLineParser(io.LimitReader(f, r.End-r.Start), r.Edges),
	}, nil
}

// openTextFile streams the whole text file behind f, which Open has just
// sniffed and rewound, as one Segment: it counts the data lines, rewinds,
// and parses from the same handle, so the count cannot race a concurrent
// file swap. The parser reads to the end of the file, so lines added after
// the count fail the stream.
func openTextFile(f *os.File) (*Segment, error) {
	count, err := countDataLinesIn(f)
	if err != nil {
		return nil, fmt.Errorf("stream: counting lines in %s: %w", f.Name(), err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("stream: rewinding %s: %w", f.Name(), err)
	}
	return &Segment{f: f, lineParser: newLineParser(f, count)}, nil
}

// Close releases the underlying file handle.
func (s *Segment) Close() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("stream: closing segment: %w", err)
	}
	return nil
}
