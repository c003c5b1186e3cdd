package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	adwise "github.com/adwise-go/adwise"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	g, err := adwise.Community(10, 8, 0.9, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := adwise.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPartitionsWithEveryAlgo(t *testing.T) {
	path := writeTestGraph(t)
	for _, algo := range []string{"adwise", "hash", "1d", "2d", "grid", "greedy", "dbh", "hdrf", "ne"} {
		if err := run([]string{"-in", path, "-k", "4", "-algo", algo}); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

func TestRunSpotlightMode(t *testing.T) {
	path := writeTestGraph(t)
	if err := run([]string{"-in", path, "-k", "8", "-z", "4", "-algo", "hdrf"}); err != nil {
		t.Errorf("spotlight run: %v", err)
	}
	if err := run([]string{"-in", path, "-k", "8", "-z", "4", "-spread", "4", "-algo", "adwise", "-window", "16"}); err != nil {
		t.Errorf("spotlight adwise run: %v", err)
	}
}

func TestRunSpotlightSegmentedAssignsEveryEdge(t *testing.T) {
	// -z on a text file goes through the segmented byte-range loaders; the
	// written assignment must still cover the whole graph.
	path := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "parts.tsv")
	if err := run([]string{"-in", path, "-k", "8", "-z", "4", "-algo", "hdrf", "-out", out}); err != nil {
		t.Fatal(err)
	}
	a, err := adwise.LoadAssignment(out)
	if err != nil {
		t.Fatal(err)
	}
	g, err := adwise.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Errorf("segmented spotlight assigned %d of %d edges", a.Len(), g.E())
	}
}

func TestRunSpotlightBinarySegmentedAssignsEveryEdge(t *testing.T) {
	// -z on a binary input streams disjoint record ranges planned from the
	// header — no materialised fallback — and the written assignment must
	// still cover the whole graph.
	g, err := adwise.Community(10, 8, 0.9, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := adwise.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "parts.tsv")
	if err := run([]string{"-in", path, "-k", "8", "-z", "4", "-algo", "hdrf", "-out", out}); err != nil {
		t.Fatalf("binary spotlight run: %v", err)
	}
	a, err := adwise.LoadAssignment(out)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Errorf("binary segmented spotlight assigned %d of %d edges", a.Len(), g.E())
	}
}

func TestRunBinarySingleInstanceStreams(t *testing.T) {
	// z=1 on a binary input goes through the same format-agnostic stream
	// layer (no edge-list materialisation for streaming strategies).
	g, err := adwise.Community(10, 8, 0.9, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := adwise.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"hdrf", "adwise", "ne"} {
		if err := run([]string{"-in", path, "-k", "4", "-algo", algo}); err != nil {
			t.Errorf("algo %s on binary input: %v", algo, err)
		}
	}
}

func TestRunSegmentedRejectsMalformedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	content := "0 1\n1 2\nbroken line x y\n2 3\n3 4\n4 5\n5 6\n6 7\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-k", "8", "-z", "4", "-algo", "hdrf"}); err == nil {
		t.Error("malformed mid-file line did not fail the segmented run")
	}
}

func TestRunWritesAssignment(t *testing.T) {
	path := writeTestGraph(t)
	out := filepath.Join(t.TempDir(), "parts.tsv")
	if err := run([]string{"-in", path, "-k", "4", "-algo", "hdrf", "-out", out, "-v"}); err != nil {
		t.Fatal(err)
	}
	a, err := adwise.LoadAssignment(out)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 4 {
		t.Errorf("written assignment k=%d, want 4", a.K)
	}
	g, err := adwise.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Errorf("assignment covers %d of %d edges", a.Len(), g.E())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t)
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# no edges\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := [][]string{
		{},                          // missing -in
		{"-in", "/nonexistent.txt"}, // unreadable graph
		{"-in", path, "-k", "0"},    // bad k
		{"-in", path, "-algo", "bogus"},
		{"-in", path, "-vcache-budget", "nan"},  // would wrap to "unlimited"
		{"-in", path, "-vcache-budget", "1e20"}, // overflows int64
		{"-in", path, "-z", "0"},
		{"-in", path, "-k", "4", "-spread", "2"}, // z=1 fills all k partitions
		{"-in", empty},                           // no edge for the one instance
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// A spotlight config the executor would reject fails before the input
	// is planned: on a missing file the error is the config's, not the
	// open's.
	for _, args := range [][]string{
		{"-in", "/nonexistent.txt", "-k", "32", "-z", "3"},
		{"-in", "/nonexistent.txt", "-k", "4", "-spread", "2"},
	} {
		if err := run(args); err == nil || strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("run(%v) = %v, want the config error before the input is opened", args, err)
		}
	}
	// So does a strategy the registry lacks: the error names it, not the
	// missing file.
	for _, z := range []string{"1", "2"} {
		args := []string{"-in", "/nonexistent.txt", "-k", "4", "-z", z, "-algo", "bogus"}
		if err := run(args); err == nil || !strings.Contains(err.Error(), "bogus") || strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("run(%v) = %v, want the unknown strategy before the input is opened", args, err)
		}
	}
}

// TestRunMetricsOutPublishesRunStats checks that the final -metrics-out
// snapshot carries the run's stats at every z, not only at z = 1.
func TestRunMetricsOutPublishesRunStats(t *testing.T) {
	path := writeTestGraph(t)
	g, err := adwise.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []string{"1", "2"} {
		out := filepath.Join(t.TempDir(), "metrics.jsonl")
		if err := run([]string{"-in", path, "-k", "4", "-z", z, "-algo", "hdrf", "-metrics-out", out}); err != nil {
			t.Fatalf("-z %s: %v", z, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		var final adwise.MetricSnapshot
		if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
			t.Fatalf("-z %s: final snapshot: %v", z, err)
		}
		if p, ok := final.Counter("runtime.assignments"); !ok || p.Value != int64(g.E()) {
			t.Errorf("-z %s: final runtime.assignments = %d (present %v), want %d", z, p.Value, ok, g.E())
		}
	}
}

func TestMainSmoke(t *testing.T) {
	// Ensure the test binary's main path stays compilable; nothing to
	// execute here beyond flag parsing failure handling via run().
	if os.Getenv("GO_TEST_EXEC_MAIN") != "" {
		main()
	}
}

// TestRunTruncatedInputKeepsOutput pins the no-partial-output contract: a
// run over a truncated input file fails, and a pre-existing -out file is
// left byte-identical, with no temporary file beside it.
func TestRunTruncatedInputKeepsOutput(t *testing.T) {
	g, err := adwise.Community(10, 8, 0.9, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	text, bin := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.bin")
	for _, path := range []string{text, bin} {
		if err := adwise.SaveGraph(path, g); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut the last record in half: a text line keeps only its source
		// vertex, a binary record loses its last three bytes.
		cut := len(raw) - 3
		if path == text {
			cut = bytes.LastIndexByte(raw, '\t') + 1
		}
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	outDir := t.TempDir()
	out := filepath.Join(outDir, "parts.tsv")
	prev := []byte("0 1 0\n")
	if err := os.WriteFile(out, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{text, bin} {
		for _, args := range [][]string{
			{"-algo", "hdrf"},
			{"-algo", "adwise", "-window", "64"},
			{"-algo", "adwise", "-z", "2", "-window", "16"},
		} {
			args = append([]string{"-in", in, "-k", "4", "-out", out}, args...)
			if err := run(args); err == nil {
				t.Errorf("run(%v) over a truncated input succeeded", args)
			}
			if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, prev) {
				t.Fatalf("run(%v) changed the existing -out file: %q, %v", args, got, err)
			}
		}
	}
	if entries, err := os.ReadDir(outDir); err != nil || len(entries) != 1 {
		t.Errorf("output directory holds %d entries (%v), want only the -out file", len(entries), err)
	}
}
