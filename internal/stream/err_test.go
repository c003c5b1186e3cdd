package stream

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// The stream error contract: exhaustion with a pending Err is a failure,
// never a short success, and every wrapper forwards the inner error state.

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func openBad(t *testing.T) *File {
	t.Helper()
	fs, err := OpenFile(writeFile(t, "0 1\nbogus\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestErrNilForInfallibleStreams(t *testing.T) {
	if err := Err(FromEdges(edgesN(3))); err != nil {
		t.Errorf("Err on slice stream = %v, want nil", err)
	}
}

func TestErrForwardedThroughWrappers(t *testing.T) {
	wrappers := map[string]func(Stream) Stream{
		"buffered": func(s Stream) Stream { return NewBuffered(s, 4) },
		"metered":  func(s Stream) Stream { return NewMetered(s, nil, nil) },
		"nested":   func(s Stream) Stream { return NewBuffered(NewMetered(s, nil, nil), 4) },
	}
	for name, wrap := range wrappers {
		t.Run(name, func(t *testing.T) {
			s := wrap(openBad(t))
			got := drain(t, s)
			if len(got) != 1 {
				t.Errorf("drained %d edges before failure, want 1", len(got))
			}
			if Err(s) == nil {
				t.Error("wrapper hid the inner stream's error")
			}
		})
	}
}

func TestCollectReturnsStreamError(t *testing.T) {
	edges, err := Collect(openBad(t))
	if err == nil {
		t.Fatalf("Collect of failing stream returned %d edges and no error", len(edges))
	}
}

func TestFileRemainingZeroedOnError(t *testing.T) {
	fs := openBad(t)
	drain(t, fs)
	if fs.Err() == nil {
		t.Fatal("no stream error recorded")
	}
	if got := fs.Remaining(); got != 0 {
		t.Errorf("Remaining after error = %d, want 0 (no usable remainder)", got)
	}
}

func TestCountMatchesParserShapeTest(t *testing.T) {
	// The counting pass must not count lines the parser rejects
	// (fewer than two fields), so Remaining is exact up to the failure.
	fs, err := OpenFile(writeFile(t, "0 1\nsingletoken\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if got := fs.Remaining(); got != 2 {
		t.Errorf("Remaining = %d, want 2 (malformed line not counted)", got)
	}
}

func TestOversizedLineIsStreamError(t *testing.T) {
	// A >1 MiB line overflows the scanner token buffer: that must surface
	// as a stream error, not silent truncation.
	long := "0 " + strings.Repeat("7", maxLineBytes+16)
	fs, err := OpenFile(writeFile(t, "1 2\n"+long+"\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	got := drain(t, fs)
	if len(got) != 1 {
		t.Errorf("drained %d edges before oversized line, want 1", len(got))
	}
	if fs.Err() == nil {
		t.Error("oversized line did not set Err")
	}
	if fs.Remaining() != 0 {
		t.Errorf("Remaining after error = %d, want 0", fs.Remaining())
	}
}

func TestTruncatedFileIsStreamError(t *testing.T) {
	// A file cut off mid-edge (no second field on the final line) is a
	// malformed line, not a clean end of stream.
	fs, err := OpenFile(writeFile(t, "0 1\n1 2\n314"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	got := drain(t, fs)
	if len(got) != 2 {
		t.Errorf("drained %d edges before truncation point, want 2", len(got))
	}
	if fs.Err() == nil {
		t.Error("truncated trailing edge did not set Err")
	}
}

func TestBufferedNextBatchAfterInnerError(t *testing.T) {
	b := NewBuffered(openBad(t), 4)
	var buf [8]graph.Edge
	total := 0
	for {
		n := b.NextBatch(buf[:])
		if n == 0 {
			break
		}
		total += n
	}
	if total != 1 {
		t.Errorf("batched %d edges before failure, want 1", total)
	}
	if b.Err() == nil {
		t.Error("Buffered batch path hid the inner error")
	}
}

func TestErrIsFirstFailure(t *testing.T) {
	fs := openBad(t)
	drain(t, fs)
	first := fs.Err()
	drain(t, fs) // further draws must not change the recorded error
	if !errors.Is(fs.Err(), first) {
		t.Errorf("Err changed across draws: %v vs %v", first, fs.Err())
	}
}
