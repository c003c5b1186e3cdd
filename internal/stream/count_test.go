package stream

import (
	"os"
	"testing"
)

// A text stream holds its input to the count taken before streaming (the
// counting pass for a File, the plan for a Segment): bytes that changed
// in between fail the stream instead of streaming more or fewer edges
// than Remaining promised.

// rewriteAt overwrites the bytes of path at off with b, keeping its size.
func rewriteAt(t *testing.T, path string, off int64, b string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte(b), off); err != nil {
		t.Fatal(err)
	}
}

// appendTo appends s to the file at path.
func appendTo(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// requireCountFailure drains s and fails unless it ended with a stream
// error and no remainder.
func requireCountFailure(t *testing.T, s FileStream, counted int64) {
	t.Helper()
	got := drain(t, s)
	if s.Err() == nil {
		t.Fatalf("streamed %d edges against a count of %d with no error (Remaining %d)", len(got), counted, s.Remaining())
	}
	if r := s.Remaining(); r != 0 {
		t.Errorf("Remaining after the count mismatch = %d, want 0", r)
	}
}

func TestFileFailsWhenLinesChangeAfterOpen(t *testing.T) {
	const content = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n"
	for _, c := range []struct {
		name   string
		change func(t *testing.T, path string)
	}{
		{"grew by two lines", func(t *testing.T, path string) { appendTo(t, path, "6 7\n7 8\n") }},
		{"line became a comment", func(t *testing.T, path string) { rewriteAt(t, path, 4, "#12") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := writeFile(t, content)
			fs, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			if got := fs.Remaining(); got != 6 {
				t.Fatalf("Remaining = %d, want 6", got)
			}
			c.change(t, path)
			requireCountFailure(t, fs, 6)
		})
	}
}

func TestSegmentFailsWhenLinesChangeAfterPlanning(t *testing.T) {
	for _, c := range []struct {
		name    string
		content string
		off     int64
		repl    string
	}{
		// The first range holds "0 1", "1 2" and "2 3"; "1 2" turns into a
		// comment of the same length, so the range ends an edge short.
		{"data line became a comment", "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n", 4, "#12"},
		// The first range holds "0 1", a comment and "2 3"; the comment
		// turns into a data line, one edge past the plan.
		{"comment became a data line", "0 1\n#xy\n2 3\n3 4\n4 5\n5 6\n", 4, "9 9"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := writeFile(t, c.content)
			ranges, err := Plan(path, 2)
			if err != nil {
				t.Fatal(err)
			}
			r := ranges[0]
			if r.Start != 0 || r.End <= c.off {
				t.Fatalf("first range [%d,%d) does not cover byte %d", r.Start, r.End, c.off)
			}
			seg, err := OpenSegment(r)
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			rewriteAt(t, path, c.off, c.repl)
			requireCountFailure(t, seg, r.Edges)
		})
	}
}
