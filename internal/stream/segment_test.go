package stream

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

func TestPlanTilesFileOnLineBoundaries(t *testing.T) {
	content := "# header\n0 1\n1 2\n2 3\n% comment\n3 4\n4 5\n5 6\n"
	path := writeFile(t, content)
	ranges, err := Plan(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 3 {
		t.Fatalf("Plan returned %d ranges, want 3", len(ranges))
	}
	var offset, total int64
	for i, r := range ranges {
		if r.Start != offset {
			t.Errorf("range %d starts at %d, want %d (ranges must tile)", i, r.Start, offset)
		}
		if r.Start > 0 && content[r.Start-1] != '\n' {
			t.Errorf("range %d starts mid-line at byte %d", i, r.Start)
		}
		offset = r.End
		total += r.Edges
	}
	if offset != int64(len(content)) {
		t.Errorf("last range ends at %d, want file size %d", offset, len(content))
	}
	if total != 6 {
		t.Errorf("planned %d data lines, want 6", total)
	}
}

func TestPlanErrors(t *testing.T) {
	path := writeFile(t, "0 1\n1 2\n")
	if _, err := Plan(path, 0); err == nil {
		t.Error("z=0 accepted")
	}
	if _, err := Plan(filepath.Join(t.TempDir(), "nope.txt"), 2); err == nil {
		t.Error("missing file accepted")
	}
	// Fewer data lines than z: some loader would stream nothing.
	if _, err := Plan(path, 3); err == nil {
		t.Error("z above the data line count accepted")
	}
}

func TestSegmentStreamsItsRangeExactly(t *testing.T) {
	path := writeFile(t, "0 1\n1 2\n2 3\n3 4\n4 5\n")
	ranges, err := Plan(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	for i, r := range ranges {
		seg, err := OpenSegment(r)
		if err != nil {
			t.Fatal(err)
		}
		if rem := seg.Remaining(); rem != r.Edges {
			t.Errorf("segment %d Remaining = %d, want planned %d", i, rem, r.Edges)
		}
		edges := drain(t, seg)
		if int64(len(edges)) != r.Edges {
			t.Errorf("segment %d yielded %d edges, planned %d", i, len(edges), r.Edges)
		}
		if err := seg.Err(); err != nil {
			t.Errorf("segment %d: %v", i, err)
		}
		if err := seg.Close(); err != nil {
			t.Error(err)
		}
		got = append(got, edges...)
	}
	for i, e := range got {
		if e != (graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}) {
			t.Fatalf("edge %d = %v out of order", i, e)
		}
	}
}

func TestOpenSegmentRejectsInvalidRange(t *testing.T) {
	path := writeFile(t, "0 1\n")
	if _, err := OpenSegment(Range{Path: path, Start: 5, End: 2}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := OpenSegment(Range{Path: path, Start: -1, End: 2}); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := OpenSegment(Range{Path: path, Start: 0, End: 4, Edges: -1}); err == nil {
		t.Error("negative edge count accepted")
	}
}

func TestSegmentForwardsParseErrors(t *testing.T) {
	path := writeFile(t, "0 1\n1 2\nbroken\n2 3\n3 4\n4 5\n")
	ranges, err := Plan(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for _, r := range ranges {
		seg, err := OpenSegment(r)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, seg)
		if seg.Err() != nil {
			sawErr = true
			if seg.Remaining() != 0 {
				t.Errorf("Remaining after segment error = %d, want 0", seg.Remaining())
			}
		}
		seg.Close()
	}
	if !sawErr {
		t.Error("no segment reported the malformed line")
	}
}

// TestPlanNeverLeavesALoaderEmpty pins the skewed-alignment cases: every
// range of a successful Plan holds at least one data line even when the
// byte-proportional targets all fall inside comment blocks or one giant
// line — files the materialised chunker handles, so the planner must too.
func TestPlanNeverLeavesALoaderEmpty(t *testing.T) {
	files := map[string]string{
		// Both byte targets (z=3) land inside the trailing comment block.
		"comment tail": "0 1\n1 2\n2 3\n" + strings.Repeat("# padding comment line\n", 40),
		// A giant comment line spans every interior byte target.
		"giant line": "0 1\n1 2\n2 3\n# " + strings.Repeat("x", 4096) + "\n",
		// Leading comment block pushes all data past the first target.
		"comment head": strings.Repeat("# header padding\n", 40) + "0 1\n1 2\n2 3\n",
		// Last data line far longer than the rest.
		"fat last line": "0 1\n1 2\n1048575 1048575          \n",
	}
	for name, content := range files {
		t.Run(name, func(t *testing.T) {
			path := writeFile(t, content)
			z := 3
			ranges, err := Plan(path, z)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for i, r := range ranges {
				if r.Edges == 0 {
					t.Errorf("range %d planned with no data lines: %+v", i, r)
				}
				seg, err := OpenSegment(r)
				if err != nil {
					t.Fatal(err)
				}
				got := drain(t, seg)
				if err := seg.Err(); err != nil {
					t.Fatalf("range %d: %v", i, err)
				}
				if int64(len(got)) != r.Edges {
					t.Errorf("range %d yielded %d edges, planned %d", i, len(got), r.Edges)
				}
				total += int64(len(got))
				seg.Close()
			}
			if total != 3 {
				t.Errorf("segments yielded %d edges, want 3", total)
			}
		})
	}
}

// randomEdgeFile writes n edges with randomised id widths, comment lines,
// blank lines, varying separators, and a randomised trailing newline —
// exercising every way a byte target can fall mid-line.
func randomEdgeFile(t *testing.T, rng *rand.Rand, n int) (string, []graph.Edge) {
	t.Helper()
	var (
		b    strings.Builder
		want []graph.Edge
	)
	for i := 0; i < n; i++ {
		switch rng.IntN(6) {
		case 0:
			b.WriteString("# a comment line of random length ")
			b.WriteString(strings.Repeat("x", rng.IntN(40)))
			b.WriteString("\n")
		case 1:
			b.WriteString("\n")
		}
		src := graph.VertexID(rng.Uint64N(1 << rng.IntN(30)))
		dst := graph.VertexID(rng.Uint64N(1 << rng.IntN(30)))
		sep := " "
		if rng.IntN(2) == 0 {
			sep = "\t"
		}
		fmt.Fprintf(&b, "%d%s%d", src, sep, dst)
		want = append(want, graph.Edge{Src: src, Dst: dst})
		if i < n-1 || rng.IntN(2) == 0 {
			b.WriteString("\n")
		}
	}
	path := filepath.Join(t.TempDir(), "rand.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, want
}

// Property: for any newline alignment and any z, the planned segments
// cover every edge exactly once, in order, with exact per-segment counts —
// and match what a whole-file stream produces.
func TestQuickSegmentsCoverEveryEdgeOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0x5e6))
	for round := 0; round < 60; round++ {
		n := 1 + rng.IntN(200)
		z := 1 + rng.IntN(8)
		if z > n {
			z = n
		}
		path, want := randomEdgeFile(t, rng, n)
		ranges, err := Plan(path, z)
		if err != nil {
			t.Fatalf("round %d (n=%d z=%d): %v", round, n, z, err)
		}
		if len(ranges) != z {
			t.Fatalf("round %d: Plan returned %d ranges, want %d", round, len(ranges), z)
		}
		var got []graph.Edge
		prevEnd := int64(0)
		for i, r := range ranges {
			if r.Start != prevEnd {
				t.Fatalf("round %d: range %d starts at %d, want %d", round, i, r.Start, prevEnd)
			}
			prevEnd = r.End
			seg, err := OpenSegment(r)
			if err != nil {
				t.Fatal(err)
			}
			edges := drain(t, seg)
			if err := seg.Err(); err != nil {
				t.Fatalf("round %d segment %d: %v", round, i, err)
			}
			if int64(len(edges)) != r.Edges {
				t.Fatalf("round %d segment %d: %d edges, planned %d", round, i, len(edges), r.Edges)
			}
			seg.Close()
			got = append(got, edges...)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d (n=%d z=%d): segments yielded %d edges, want %d", round, n, z, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: edge %d = %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestPlanOversizedLine: a line longer than the planner's read buffer
// still plans at exact byte offsets, and the segment that holds it fails
// with the scanner's line limit.
func TestPlanOversizedLine(t *testing.T) {
	content := "1 2\n0 " + strings.Repeat("7", maxLineBytes+16) + "\n3 4\n4 5\n"
	ranges, err := Plan(writeFile(t, content), 2)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, r := range ranges {
		if i > 0 && r.Start != ranges[i-1].End || r.Start > 0 && content[r.Start-1] != '\n' {
			t.Fatalf("range %d [%d,%d) does not start on the line after its predecessor", i, r.Start, r.End)
		}
		total += r.Edges
	}
	if end := ranges[len(ranges)-1].End; end != int64(len(content)) || total != 4 {
		t.Fatalf("ranges end at %d holding %d edges, want %d and 4", end, total, len(content))
	}
	seg, err := OpenSegment(ranges[0])
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	drain(t, seg)
	if err := seg.Err(); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("segment over the oversized line: Err = %v, want bufio.ErrTooLong", err)
	}
}

// TestSegmentAllocatesLittle: the scanner starts small and grows only for
// long lines, so opening and draining a two-edge segment allocates far
// less than the 1 MiB line limit.
func TestSegmentAllocatesLittle(t *testing.T) {
	ranges, err := Plan(writeFile(t, "0 1\n1 2\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seg, err := OpenSegment(ranges[0])
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, seg)
	if err := seg.Err(); err != nil || len(got) != 2 {
		t.Fatalf("drained %d edges, err %v; want 2 and nil", len(got), err)
	}
	seg.Close()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 128<<10 {
		t.Errorf("opening and draining a 2-edge segment allocated %d bytes, want under 128 KiB", alloc)
	}
}

// TestCountingPassesAllocateNothingPerLine: Plan and Open count a file's
// lines in place in their read buffers, so their allocations do not grow
// with the line count.
func TestCountingPassesAllocateNothingPerLine(t *testing.T) {
	allocs := func(lines int) (plan, open float64) {
		path := writeFile(t, "# header\n"+strings.Repeat("12 34\n", lines))
		plan = testing.AllocsPerRun(3, func() {
			if _, err := Plan(path, 2); err != nil {
				t.Fatal(err)
			}
		})
		open = testing.AllocsPerRun(3, func() {
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
		return plan, open
	}
	plan10, open10 := allocs(10)
	plan10k, open10k := allocs(10_000)
	if plan10k > plan10 {
		t.Errorf("Plan made %.0f allocations on 10,000 lines, %.0f on 10", plan10k, plan10)
	}
	if open10k > open10 {
		t.Errorf("Open made %.0f allocations on 10,000 lines, %.0f on 10", open10k, open10)
	}
}
