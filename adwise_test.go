package adwise_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	adwise "github.com/adwise-go/adwise"
)

func TestPublicQuickstartPath(t *testing.T) {
	g, err := adwise.Generate(adwise.GraphBrain, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := adwise.NewADWISE(8, adwise.WithInitialWindow(32), adwise.WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run(adwise.StreamGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Fatalf("assigned %d of %d edges", a.Len(), g.E())
	}
	s := adwise.Summarize(a)
	if s.ReplicationDegree < 1 {
		t.Errorf("RF = %v < 1", s.ReplicationDegree)
	}
	if got := p.Stats(); got.Assignments != int64(g.E()) {
		t.Errorf("stats assignments = %d", got.Assignments)
	}
}

func TestPublicBaselines(t *testing.T) {
	g, err := adwise.Generate(adwise.GraphOrkut, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range adwise.Baselines() {
		p, err := adwise.NewBaseline(name, adwise.BaselineConfig{K: 8, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := adwise.RunBaseline(adwise.StreamGraph(g), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Len() != g.E() {
			t.Errorf("%s: assigned %d of %d", name, a.Len(), g.E())
		}
	}
	if _, err := adwise.NewBaseline("bogus", adwise.BaselineConfig{K: 8}); err == nil {
		t.Error("unknown baseline accepted")
	}
	if _, err := adwise.NewHDRF(adwise.BaselineConfig{K: 8}, 2.0); err != nil {
		t.Errorf("NewHDRF: %v", err)
	}
}

func TestPublicSpotlight(t *testing.T) {
	g, err := adwise.Generate(adwise.GraphBrain, 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := adwise.SpotlightConfig{K: 8, Z: 4, Spread: 2}
	streams, err := adwise.ChunkStreams(g.Edges, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := adwise.RunSpotlight(streams, cfg, func(i int, allowed []int) (adwise.Runner, error) {
		p, err := adwise.NewBaseline(adwise.BaselineGreedy, adwise.BaselineConfig{K: 8, Allowed: allowed})
		if err != nil {
			return nil, err
		}
		return adwise.AsRunner(p), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Fatalf("spotlight assigned %d of %d", a.Len(), g.E())
	}
}

func TestPublicNE(t *testing.T) {
	g, err := adwise.Community(10, 8, 0.9, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := adwise.PartitionNE(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Fatalf("NE assigned %d of %d", a.Len(), g.E())
	}
	hist := adwise.ReplicaHistogram(a)
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != adwise.Summarize(a).Vertices {
		t.Error("histogram does not cover all vertices")
	}
}

func TestPublicGraphIO(t *testing.T) {
	g, err := adwise.ErdosRenyi(50, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := adwise.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := adwise.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.E() != g.E() || back.V() != g.V() {
		t.Errorf("round trip: V=%d E=%d, want V=%d E=%d", back.V(), back.E(), g.V(), g.E())
	}
	st := adwise.Stats(g, 1)
	if st.V != 50 || st.E != 100 {
		t.Errorf("stats: %+v", st)
	}
}

// TestLoadGraphFormatsAgree saves one graph whose top-numbered vertices
// are isolated as text and as binary: both copies load with the same
// vertex universe, the largest endpoint plus one, and the same edges.
func TestLoadGraphFormatsAgree(t *testing.T) {
	g, err := adwise.RMAT(10, 2000, 0.57, 0.19, 0.19, 1)
	if err != nil {
		t.Fatal(err)
	}
	var maxID adwise.VertexID
	for _, e := range g.Edges {
		maxID = max(maxID, e.Src, e.Dst)
	}
	if int(maxID)+1 == g.V() {
		t.Fatalf("fixture uses vertex %d of %d; it needs isolated top-numbered vertices", maxID, g.V())
	}
	dir := t.TempDir()
	var loaded []*adwise.Graph
	for _, name := range []string{"g.txt", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := adwise.SaveGraph(path, g); err != nil {
			t.Fatal(err)
		}
		back, err := adwise.LoadGraph(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.V() != int(maxID)+1 {
			t.Errorf("%s loads with %d vertices, want the largest endpoint plus one, %d", name, back.V(), maxID+1)
		}
		loaded = append(loaded, back)
	}
	txt, bin := loaded[0], loaded[1]
	if txt.V() != bin.V() || txt.E() != bin.E() {
		t.Fatalf("text loads V=%d E=%d, binary V=%d E=%d", txt.V(), txt.E(), bin.V(), bin.E())
	}
	for i := range txt.Edges {
		if txt.Edges[i] != bin.Edges[i] {
			t.Fatalf("edge %d: text %v, binary %v", i, txt.Edges[i], bin.Edges[i])
		}
	}
}

// TestLoadGraphBinaryHeaderBelowEdges loads a binary file whose header
// declares fewer vertices than its edges reach: the universe comes from
// the edges, so the graph it returns is one Stats can walk.
func TestLoadGraphBinaryHeaderBelowEdges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := adwise.SaveGraph(path, &adwise.Graph{NumV: 4, Edges: []adwise.Edge{{Src: 0, Dst: 9}}}); err != nil {
		t.Fatal(err)
	}
	g, err := adwise.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.V() != 10 {
		t.Fatalf("NumV = %d, want 10", g.V())
	}
	if st := adwise.Stats(g, 1); st.V != 10 || st.E != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPublicStreamFile(t *testing.T) {
	g, err := adwise.Path(20)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := adwise.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	fs, err := adwise.StreamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	p, err := adwise.NewADWISE(4, adwise.WithLatencyPreference(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run(fs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != g.E() {
		t.Errorf("file stream: assigned %d of %d", a.Len(), g.E())
	}
}

func TestPublicEngineWorkloads(t *testing.T) {
	g, err := adwise.Generate(adwise.GraphWeb, 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := adwise.NewBaseline(adwise.BaselineHDRF, adwise.BaselineConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := adwise.RunBaseline(adwise.StreamGraph(g), p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adwise.NewEngine(a, g.NumV, adwise.DefaultCostModel(), 2)
	if err != nil {
		t.Fatal(err)
	}

	ranks, rep, err := eng.PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Supersteps != 10 {
		t.Errorf("supersteps = %d", rep.Supersteps)
	}
	ref := adwise.PageRankReference(g, 10, 0.85)
	for v := range ranks {
		if d := ranks[v] - ref[v]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("rank[%d] deviates: %v vs %v", v, ranks[v], ref[v])
		}
	}

	colors, _, err := eng.Coloring(100)
	if err != nil {
		t.Fatal(err)
	}
	if !adwise.ValidColoring(g, colors) {
		t.Error("improper coloring")
	}
}

func TestPublicShuffleInterleave(t *testing.T) {
	g, err := adwise.Cycle(100)
	if err != nil {
		t.Fatal(err)
	}
	sh := adwise.Shuffle(g.Edges, 3)
	il := adwise.Interleave(g.Edges, 10)
	if len(sh) != g.E() || len(il) != g.E() {
		t.Fatal("order transforms changed edge count")
	}
	seen := make(map[adwise.Edge]int)
	for _, e := range il {
		seen[e]++
	}
	for _, e := range g.Edges {
		if seen[e] != 1 {
			t.Fatalf("interleave lost edge %v", e)
		}
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	exps := adwise.Experiments()
	if len(exps) < 17 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	want := []string{"table2", "fig1", "fig7a", "fig7b", "fig7c", "fig7d", "fig7e",
		"fig7f", "fig7g", "fig7h", "fig7i", "fig8"}
	for _, id := range want {
		if _, err := adwise.LookupExperiment(id); err != nil {
			t.Errorf("experiment %s missing: %v", id, err)
		}
	}
	if _, err := adwise.LookupExperiment("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPublicExperimentTable2(t *testing.T) {
	cfg := adwise.DefaultExperimentConfig()
	cfg.Scale = 0.02
	e, err := adwise.LookupExperiment("table2")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table II has %d rows, want 3", len(tab.Rows))
	}
	if tab.String() == "" {
		t.Error("empty rendering")
	}
}

func TestPublicServingPath(t *testing.T) {
	g, err := adwise.Generate(adwise.GraphBrain, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := adwise.NewStrategy("hdrf", adwise.StrategySpec{K: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run(adwise.StreamGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := adwise.BuildIndex(a)
	if err != nil {
		t.Fatal(err)
	}
	store := adwise.NewLookupStore(idx)
	srv := httptest.NewServer(adwise.ServeHandler(store))
	defer srv.Close()

	e := a.Edges[0]
	resp, err := srv.Client().Get(fmt.Sprintf("%s/v1/edge?src=%d&dst=%d", srv.URL, e.Src, e.Dst))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge lookup status = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Partition int32 `json:"partition"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if p, ok := idx.Partition(e.Src, e.Dst); !ok || p != body.Partition {
		t.Errorf("served partition %d, index says (%d,%v)", body.Partition, p, ok)
	}
	if rc := idx.ReplicaCount(e.Src); rc < 1 {
		t.Errorf("ReplicaCount(%d) = %d, want >= 1", e.Src, rc)
	}

	// Hot-swap through the facade types keeps the handler serving.
	idx2, err := adwise.BuildIndex(a)
	if err != nil {
		t.Fatal(err)
	}
	if old := store.Swap(idx2); old != idx {
		t.Error("Swap did not return the previous index")
	}
	if store.Generation() != 2 {
		t.Errorf("generation = %d, want 2", store.Generation())
	}
}

// smallAssignment partitions a small generated graph.
func smallAssignment(t *testing.T) *adwise.Assignment {
	t.Helper()
	g, err := adwise.ErdosRenyi(40, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := adwise.NewADWISE(4, adwise.WithInitialWindow(8), adwise.WithFixedWindow())
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run(adwise.StreamGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// dirNames lists the names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestSaveAssignmentReplacesExistingFile pins the save-by-rename contract
// on success: a save over an existing file replaces its content and
// leaves no temporary file behind.
func TestSaveAssignmentReplacesExistingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "parts.tsv")
	if err := os.WriteFile(path, []byte("stale content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := smallAssignment(t)
	if err := adwise.SaveAssignment(path, a); err != nil {
		t.Fatal(err)
	}
	back, err := adwise.LoadAssignment(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != a.Len() {
		t.Fatalf("reloaded %d rows, saved %d", back.Len(), a.Len())
	}
	for i := range a.Edges {
		if back.Edges[i] != a.Edges[i] || back.Parts[i] != a.Parts[i] {
			t.Fatalf("row %d: reloaded %v→%d, saved %v→%d", i, back.Edges[i], back.Parts[i], a.Edges[i], a.Parts[i])
		}
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "parts.tsv" {
		t.Errorf("directory holds %v after the save, want only parts.tsv", names)
	}
}

// TestSaveAssignmentFailureLeavesTarget pins the save-by-rename contract
// on failure: a save whose target is an existing directory fails, leaves
// the directory and its content untouched, and leaves no temporary file.
func TestSaveAssignmentFailureLeavesTarget(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(target, "keep.txt")
	if err := os.WriteFile(keep, []byte("keep me\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := adwise.SaveAssignment(target, smallAssignment(t)); err == nil {
		t.Fatal("saving over a directory succeeded")
	}
	if got, err := os.ReadFile(keep); err != nil || string(got) != "keep me\n" {
		t.Errorf("the target directory's content changed: %q, %v", got, err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "out" {
		t.Errorf("directory holds %v after the failed save, want only out", names)
	}
}

// TestSaveAssignmentKeepsModeAndSymlink pins that a save replaces an
// existing target the way truncating it in place would: a 0600 file stays
// 0600, and a save through a symlink in another directory writes the file
// it names, leaving the link a link and no temporary file in either
// directory.
func TestSaveAssignmentKeepsModeAndSymlink(t *testing.T) {
	dataDir, linkDir := t.TempDir(), t.TempDir()
	path := filepath.Join(dataDir, "parts.tsv")
	if err := os.WriteFile(path, []byte("stale content\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o600); err != nil { // independent of the umask
		t.Fatal(err)
	}
	link := filepath.Join(linkDir, "out.tsv")
	if err := os.Symlink(path, link); err != nil {
		t.Fatal(err)
	}
	a := smallAssignment(t)
	for _, save := range []string{path, link} {
		if err := adwise.SaveAssignment(save, a); err != nil {
			t.Fatalf("save to %s: %v", save, err)
		}
		fi, err := os.Lstat(link)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode()&os.ModeSymlink == 0 {
			t.Fatalf("after the save to %s, %s has mode %v, want a symlink", save, link, fi.Mode())
		}
		if fi, err = os.Stat(path); err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o600 {
			t.Fatalf("after the save to %s, the file has mode %v, want 0600", save, fi.Mode().Perm())
		}
		back, err := adwise.LoadAssignment(path)
		if err != nil {
			t.Fatalf("after the save to %s: %v", save, err)
		}
		if back.Len() != a.Len() {
			t.Fatalf("after the save to %s, the file holds %d rows, saved %d", save, back.Len(), a.Len())
		}
		if names := dirNames(t, dataDir); len(names) != 1 || names[0] != "parts.tsv" {
			t.Errorf("after the save to %s, %v holds %v, want only parts.tsv", save, dataDir, names)
		}
		if names := dirNames(t, linkDir); len(names) != 1 || names[0] != "out.tsv" {
			t.Errorf("after the save to %s, %v holds %v, want only out.tsv", save, linkDir, names)
		}
	}
}
