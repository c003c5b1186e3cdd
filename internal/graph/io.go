package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Edge-list writers. Two formats are supported:
//
//   - Text: one "src dst" pair per line, whitespace separated, with '#' and
//     '%' comment lines — the SNAP / KONECT convention used for the paper's
//     evaluation graphs. This file.
//   - Binary (ADWB): fixed 8-byte records behind a validated header; see
//     binary.go.
//
// Reading either format is internal/stream's job: stream.Open streams a
// file and stream.Load materialises one, through the same reader.

// WriteEdgeListText writes g as a text edge list with a small header
// comment.
func WriteEdgeListText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices: %d edges: %d\n", g.NumV, len(g.Edges)); err != nil {
		return fmt.Errorf("graph: writing header: %w", err)
	}
	buf := make([]byte, 0, 32)
	for _, e := range g.Edges {
		buf = strconv.AppendUint(buf[:0], uint64(e.Src), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendUint(buf, uint64(e.Dst), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("graph: writing edge: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing edge list: %w", err)
	}
	return nil
}

// SaveFile writes the graph to path; binary format when the extension is
// ".bin", text otherwise.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: creating %s: %w", path, err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		if err := WriteBinary(f, g); err != nil {
			return err
		}
	} else if err := WriteEdgeListText(f, g); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graph: closing %s: %w", path, err)
	}
	return nil
}
