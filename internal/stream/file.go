package stream

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"

	"github.com/adwise-go/adwise/internal/graph"
)

// maxLineBytes bounds the scanner token size for edge-list lines. A line
// longer than this is a stream error (bufio.ErrTooLong), surfaced via Err.
const maxLineBytes = 1024 * 1024

// lineParser is the text edge-list scanning core shared by File (whole
// file) and Segment (one planned byte range): a scanner over some byte
// range plus the exact remaining count established by the counting pass.
// It implements the stream error contract — a parse or scan failure zeroes
// the remainder and is reported by Err, so exhaustion with a pending error
// is distinguishable from clean completion. It also holds the range to its
// count: a data line past the count, or the end of the range with counted
// edges unread, means the bytes changed after they were counted, and fails
// the stream as a short binary read fails recordReader.
type lineParser struct {
	sc        *bufio.Scanner
	remaining int64
	err       error
}

func newLineParser(r io.Reader, remaining int64) lineParser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxLineBytes), maxLineBytes)
	return lineParser{sc: sc, remaining: remaining}
}

// fail records the stream error and zeroes the remainder: edges past the
// failure point will never arrive, and condition (C2) must not budget
// latency for them.
func (p *lineParser) fail(err error) {
	p.err = err
	p.remaining = 0
}

// NextBatch implements Stream: it parses up to len(dst) edges in one call,
// touching the scanner in a tight loop so the per-edge cost is line parsing
// alone rather than parsing plus interface dispatch per edge. A malformed
// line terminates the stream; the parse error is available via Err.
func (p *lineParser) NextBatch(dst []graph.Edge) int {
	if p.err != nil {
		return 0
	}
	n := 0
	for n < len(dst) && p.sc.Scan() {
		line := strings.TrimSpace(p.sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		if p.remaining == 0 {
			p.fail(fmt.Errorf("stream: data line %q past the counted edges; the input changed after it was counted", line))
			return n
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			p.fail(fmt.Errorf("stream: malformed line %q", line))
			return n
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			p.fail(fmt.Errorf("stream: parsing src %q: %w", fields[0], err))
			return n
		}
		dstID, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			p.fail(fmt.Errorf("stream: parsing dst %q: %w", fields[1], err))
			return n
		}
		p.remaining--
		dst[n] = graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dstID)}
		n++
	}
	if n < len(dst) && p.err == nil {
		if err := p.sc.Err(); err != nil {
			p.fail(fmt.Errorf("stream: scanning edge list: %w", err))
		} else if p.remaining != 0 {
			p.fail(fmt.Errorf("stream: edge list ended with %d counted edges unread; the input changed after it was counted", p.remaining))
		}
	}
	return n
}

// Remaining implements Stream. After a stream error it reports 0: a failed
// stream has no usable remainder.
func (p *lineParser) Remaining() int64 { return p.remaining }

// Err implements Errer: the first error encountered while streaming, or
// nil on clean exhaustion.
func (p *lineParser) Err() error { return p.err }

// isDataLine reports whether a trimmed line is one the parser would attempt
// to parse as an edge: non-empty, not a comment, and at least two fields.
// The counting pass and the parser share this shape test so Remaining
// counts exactly the lines NextBatch parses.
func isDataLine(trimmed string) bool {
	if trimmed == "" || trimmed[0] == '#' || trimmed[0] == '%' {
		return false
	}
	i := strings.IndexFunc(trimmed, unicode.IsSpace)
	return i >= 0 && strings.TrimSpace(trimmed[i:]) != ""
}

// File streams edges from a text edge-list file without materialising the
// graph in memory — the loading model of Figure 3 in the paper, where "the
// graph data is stored in a large file ... the streaming partitioning
// algorithm loads the data as a stream of graph edges".
//
// The edge count is established up front with a line count pass, exactly as
// the paper suggests for condition (C2), and the stream fails if the file
// then holds more or fewer data lines than were counted.
type File struct {
	f *os.File
	lineParser
}

// OpenFile opens path as an edge stream. The first pass counts data lines
// so Remaining is exact; the counting pass and the parse share one handle,
// so the count cannot race a concurrent file swap.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening %s: %w", path, err)
	}
	fs, err := openFileHandle(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// openFileHandle builds the text stream over an already-open handle
// positioned anywhere: it counts data lines from the start, rewinds, and
// parses from the same handle.
func openFileHandle(f *os.File) (*File, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("stream: rewinding %s: %w", f.Name(), err)
	}
	count, err := countDataLinesIn(f)
	if err != nil {
		return nil, fmt.Errorf("stream: counting lines in %s: %w", f.Name(), err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("stream: rewinding %s: %w", f.Name(), err)
	}
	return &File{f: f, lineParser: newLineParser(f, count)}, nil
}

// countDataLinesIn is the counting pass over any reader: it counts exactly
// the lines the parser would attempt to parse (isDataLine), which is what
// keeps Remaining and NextBatch in agreement.
func countDataLinesIn(r io.Reader) (int64, error) {
	var count int64
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := br.ReadString('\n')
		if isDataLine(strings.TrimSpace(line)) {
			count++
		}
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// Close releases the underlying file.
func (fs *File) Close() error {
	if err := fs.f.Close(); err != nil {
		return fmt.Errorf("stream: closing file: %w", err)
	}
	return nil
}
