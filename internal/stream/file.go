package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"github.com/adwise-go/adwise/internal/graph"
)

// maxLineBytes bounds the scanner token size for edge-list lines. A line
// longer than this is a stream error (bufio.ErrTooLong), surfaced via Err.
const maxLineBytes = 1024 * 1024

// lineParser is the text edge-list scanning core of Segment, which streams
// a planned byte range or, from Open, a whole file: a scanner over the
// bytes plus the exact remaining count established by the counting pass.
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

// newLineParser starts the scanner at 64 KiB, which it grows up to
// maxLineBytes only for a longer line, so a short segment does not
// allocate the whole line limit.
func newLineParser(r io.Reader, remaining int64) lineParser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
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
// alone rather than parsing plus interface dispatch per edge. Each line is
// parsed in place in the scanner's buffer, so no line allocates. A
// malformed line terminates the stream; the parse error is available via
// Err.
func (p *lineParser) NextBatch(dst []graph.Edge) int {
	if p.err != nil {
		return 0
	}
	n := 0
	for n < len(dst) && p.sc.Scan() {
		line := bytes.TrimSpace(p.sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		if p.remaining == 0 {
			p.fail(fmt.Errorf("stream: data line %q past the counted edges; the input changed after it was counted", line))
			return n
		}
		srcField, rest := nextField(line)
		dstField, _ := nextField(rest)
		if len(dstField) == 0 {
			p.fail(fmt.Errorf("stream: malformed line %q", line))
			return n
		}
		src, err := strconv.ParseUint(string(srcField), 10, 32)
		if err != nil {
			p.fail(fmt.Errorf("stream: parsing src %q: %w", srcField, err))
			return n
		}
		dstID, err := strconv.ParseUint(string(dstField), 10, 32)
		if err != nil {
			p.fail(fmt.Errorf("stream: parsing dst %q: %w", dstField, err))
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

// isDataLine reports whether a line is one the parser would attempt to
// parse as an edge: after trimming, non-empty, not a comment, and at least
// two fields. The counting passes and the parser split fields with the same
// indexSpace, so Remaining counts exactly the lines NextBatch parses.
func isDataLine(line []byte) bool {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 || trimmed[0] == '#' || trimmed[0] == '%' {
		return false
	}
	// trimmed ends in a non-space, so any space inside it starts a second
	// field.
	return indexSpace(trimmed) >= 0
}

// nextField splits s, which starts with a non-space, into its first field
// and what follows the spaces after it, where strings.Fields would split.
func nextField(s []byte) (field, rest []byte) {
	i := indexSpace(s)
	if i < 0 {
		return s, nil
	}
	return s[:i], bytes.TrimLeftFunc(s[i:], unicode.IsSpace)
}

// indexSpace is bytes.IndexFunc(s, unicode.IsSpace) with a fast path for
// ASCII.
func indexSpace(s []byte) int {
	for i, c := range s {
		if c >= utf8.RuneSelf {
			return bytes.IndexFunc(s, unicode.IsSpace)
		}
		if asciiSpace[c] {
			return i
		}
	}
	return -1
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// readLine returns the next line of br with its '\n', as br.ReadBytes
// would, but as a slice of br's buffer whenever the line fits there: the
// counting passes allocate nothing per line. The slice is valid until the
// next read. A line longer than the buffer is gathered into a new slice.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// countDataLinesIn is the counting pass over any reader: it counts exactly
// the lines the parser would attempt to parse (isDataLine), which is what
// keeps Remaining and NextBatch in agreement.
func countDataLinesIn(r io.Reader) (int64, error) {
	var count int64
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := readLine(br)
		if isDataLine(line) {
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
