package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	adwise "github.com/adwise-go/adwise"
)

func writeFixtures(t *testing.T) (graphPath, assignmentPath string, a *adwise.Assignment) {
	t.Helper()
	g, err := adwise.Community(8, 8, 0.9, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath = filepath.Join(dir, "g.txt")
	if err := adwise.SaveGraph(graphPath, g); err != nil {
		t.Fatal(err)
	}
	s, err := adwise.NewStrategy("hdrf", adwise.StrategySpec{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a, err = s.Run(adwise.StreamGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	assignmentPath = filepath.Join(dir, "parts.tsv")
	if err := adwise.SaveAssignment(assignmentPath, a); err != nil {
		t.Fatal(err)
	}
	return graphPath, assignmentPath, a
}

func TestServeFromAssignment(t *testing.T) {
	_, parts, a := writeFixtures(t)
	o, err := parseArgs([]string{"-assignment", parts})
	if err != nil {
		t.Fatal(err)
	}
	store, err := buildStore(o)
	if err != nil {
		t.Fatal(err)
	}
	ins := adwise.NewServeInstruments(adwise.NewMetricRegistry())
	srv := httptest.NewServer(newHandler(store, ins, o))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	// Served partitions match the round-tripped assignment (last write
	// wins for duplicate stream edges).
	want := make(map[adwise.Edge]int32, a.Len())
	for i, e := range a.Edges {
		want[e] = a.Parts[i]
	}
	for i := 0; i < len(a.Edges); i += 37 {
		e := a.Edges[i]
		p, ok := store.View().Partition(e.Src, e.Dst)
		if !ok || p != want[e] {
			t.Fatalf("edge %v: served (%d,%v), want (%d,true)", e, p, ok, want[e])
		}
	}

	// Hot reload: POST /v1/reload rebuilds from the file and bumps the
	// generation without interrupting service.
	resp, err = srv.Client().Post(srv.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Generation != 2 {
		t.Errorf("generation after reload = %d, want 2", out.Generation)
	}

	// A failed reload keeps serving the old generation: first a copy cut
	// at a row boundary, whose header edge count then disagrees with its
	// rows, then garbage.
	full, err := os.ReadFile(parts)
	if err != nil {
		t.Fatal(err)
	}
	truncated := full[:bytes.LastIndexByte(full[:len(full)/2], '\n')+1]
	for _, bad := range [][]byte{truncated, []byte("not an assignment\n\x00\xff")} {
		if err := os.WriteFile(parts, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("reload of a %d-byte bad file = %d, want 500", len(bad), resp.StatusCode)
		}
		checkOldGeneration(t, srv, a.Edges, want)
	}
}

// checkOldGeneration checks that srv still reports generation 2 and
// answers a batch of every assignment edge from the index that generation
// was built from.
func checkOldGeneration(t *testing.T, srv *httptest.Server, edges []adwise.Edge, want map[adwise.Edge]int32) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Generation uint64 `json:"generation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Generation != 2 {
		t.Fatalf("healthz after a failed reload: generation %d (%v), want 2", health.Generation, err)
	}

	pairs := make([][2]uint32, len(edges))
	for i, e := range edges {
		pairs[i] = [2]uint32{uint32(e.Src), uint32(e.Dst)}
	}
	body, err := json.Marshal(map[string]any{"edges": pairs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Partitions []int32 `json:"partitions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || len(out.Partitions) != len(edges) {
		t.Fatalf("batch after a failed reload: status %d, %d partitions for %d edges (%v)",
			resp.StatusCode, len(out.Partitions), len(edges), err)
	}
	for i, e := range edges {
		if out.Partitions[i] != want[e] {
			t.Fatalf("batch after a failed reload: edge %v served %d, want %d", e, out.Partitions[i], want[e])
		}
	}
}

func TestServeFromGraph(t *testing.T) {
	graphPath, _, _ := writeFixtures(t)
	o, err := parseArgs([]string{"-in", graphPath, "-algo", "adwise", "-k", "4", "-window", "64", "-z", "2"})
	if err != nil {
		t.Fatal(err)
	}
	store, err := buildStore(o)
	if err != nil {
		t.Fatal(err)
	}
	st := store.View().Stats()
	if st.K != 4 || st.DistinctEdges == 0 {
		t.Fatalf("stats = %+v, want k=4 and edges indexed", st)
	}
	// No -assignment: the reload endpoint is absent.
	ins := adwise.NewServeInstruments(adwise.NewMetricRegistry())
	srv := httptest.NewServer(newHandler(store, ins, o))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("reload endpoint exposed without -assignment")
	}
}

func TestRunErrors(t *testing.T) {
	graphPath, parts, _ := writeFixtures(t)
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# no edges\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := [][]string{
		{},                                            // neither input
		{"-assignment", parts, "-in", graphPath},      // both inputs
		{"-assignment", "/nonexistent.tsv"},           // unreadable assignment
		{"-in", "/nonexistent.txt"},                   // unreadable graph
		{"-in", graphPath, "-algo", "bogus"},          // unknown strategy
		{"-in", graphPath, "-k", "0"},                 // invalid k
		{"-in", graphPath, "-z", "0"},                 // invalid z
		{"-in", graphPath, "-k", "4", "-spread", "2"}, // z=1 fills all k partitions
		{"-in", empty},                                // no edge for the one instance
		{"-assignment", parts, "-addr", "bogus:x"},    // unlistenable address
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// A spotlight config the executor would reject fails before the graph
	// is loaded: on a missing file the error is the config's, not the
	// open's.
	for _, args := range [][]string{
		{"-in", "/nonexistent.txt", "-k", "32", "-z", "3"},
		{"-in", "/nonexistent.txt", "-k", "4", "-spread", "2"},
	} {
		if err := run(args); err == nil || strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("run(%v) = %v, want the config error before the graph is loaded", args, err)
		}
	}
}
