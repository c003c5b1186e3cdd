package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	adwise "github.com/adwise-go/adwise"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/runtime"
)

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "runtime.spotlight", Start: 0, End: 100},
		// Two concurrent instances overlap on [20,60); one outlives the parent.
		{ID: 2, Parent: 1, Name: "partition.run", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "partition.run", Start: 20, End: 130},
		// A grandchild counts against its own parent only.
		{ID: 4, Parent: 2, Name: "stream.read", Start: 15, End: 25},
		{ID: 5, Name: "metrics.write_tsv", Start: 140, End: 150},
	}
	self := SelfTimes(spans)
	want := map[int64]int64{1: 100 - 90, 2: 50 - 10, 3: 110, 4: 10, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	named := ByName(spans)["partition.run"]
	if named.Count != 2 || named.Wall != 160 || named.Self != 150 || named.Max != 110 || named.Min != 50 {
		t.Errorf("partition.run aggregate %+v", named)
	}
}

func TestSelfTimesDisjointAndNestedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "serve.handler", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "metrics.read_tsv", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "serve.build", Start: 40, End: 70},
		{ID: 4, Parent: 1, Name: "serve.build", Start: 45, End: 50}, // inside span 3
		{ID: 5, Parent: 1, Name: "late", Start: 200, End: 300},      // outside the parent
	}
	if got := SelfTimes(spans)[1]; got != 100-20-30 {
		t.Errorf("self time %d, want 50", got)
	}
}

func TestNilRecorderIsUntraced(t *testing.T) {
	var rec *Recorder
	sp := rec.Begin("core.run", 0, 0)
	rec.End(sp)
	if sp.ID != 0 || rec.Spans() != nil {
		t.Fatalf("nil recorder recorded %+v", sp)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		rank  int
		found bool
	}{
		{n: 19, found: false},
		{n: 20, pct: 50, rank: 10, found: true},
		{n: 99, pct: 50, rank: 50, found: true},
		{n: 100, pct: 90, rank: 90, found: true},
		{n: 999, pct: 90, rank: 900, found: true},
		{n: 1000, pct: 99, rank: 990, found: true},
		{n: 3000, pct: 99, rank: 2970, found: true},
		{n: 10000, pct: 99.9, rank: 9990, found: true},
	} {
		pct, rank, found := tail(c.n)
		if found != c.found || (found && (pct != c.pct || rank != c.rank)) {
			t.Errorf("tail(%d) = %v, %d, %v; want %v, %d, %v", c.n, pct, rank, found, c.pct, c.rank, c.found)
		}
		if found && c.n-rank < 10 {
			t.Errorf("tail(%d) leaves %d samples beyond rank %d", c.n, c.n-rank, rank)
		}
	}
}

func TestExpectLastWriteWins(t *testing.T) {
	e := func(s, d graph.VertexID) graph.Edge { return graph.Edge{Src: s, Dst: d} }
	a := metrics.NewAssignment(8, 6)
	a.Add(e(1, 2), 3)
	a.Add(e(2, 1), 4) // the reverse orientation is a different row key
	a.Add(e(1, 2), 5) // duplicate: overrides partition 3
	a.Add(e(7, 8), 6)
	a.Add(e(1, 2), 7) // the last write wins
	a.Add(e(5, 6), 1)
	qs := []Query{{Edge: e(1, 2)}, {Edge: e(2, 1)}, {Edge: e(8, 7)}, {Edge: e(5, 6)}, {Edge: e(9, 9)}}
	expectLastWriteWins(a, qs)
	want := []int32{7, 4, 6, 1, -1}
	for i, q := range qs {
		if q.Want != want[i] {
			t.Errorf("query %v: want partition %d, got %d", q.Edge, want[i], q.Want)
		}
	}
}

func TestServedRuleSeparatesDuplicates(t *testing.T) {
	// Rows, not edges, pick the served partition, so duplicate edges can
	// disagree and the lookup check really exercises last-write-wins.
	seen := map[int]bool{}
	for i := range 64 {
		seen[servedPart(7, i, 32)] = true
	}
	if len(seen) < 16 {
		t.Fatalf("64 rows hit only %d of 32 partitions", len(seen))
	}
}

func TestRecorderFromManyGoroutines(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				rec.End(rec.Begin("serve.handler.edge", 0, int64(g)))
			}
		}()
	}
	wg.Wait()
	spans := rec.Spans()
	ids := map[int64]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	if len(spans) != 800 || len(ids) != 800 {
		t.Fatalf("%d spans with %d distinct ids, want 800", len(spans), len(ids))
	}
}

// TestLoadAgainstServer drives both phases against the serving layer and
// checks the accounting: every request counts once, and a wrong answer is
// a failure.
func TestLoadAgainstServer(t *testing.T) {
	a := metrics.NewAssignment(8, 0)
	for i := range 64 {
		a.Add(graph.Edge{Src: graph.VertexID(i % 16), Dst: graph.VertexID(i%16 + 16)}, servedPart(3, i, 8))
	}
	idx, err := adwise.BuildIndex(a)
	if err != nil {
		t.Fatal(err)
	}
	store := adwise.NewLookupStore(idx)
	mux := http.NewServeMux()
	mux.Handle("/", adwise.ServeHandlerInstrumented(store, adwise.NewServeInstruments(adwise.NewMetricRegistry())))
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) { store.Swap(idx) })
	srv := httptest.NewServer(spanHandler(NewRecorder(), mux))
	defer srv.Close()

	qs := sampleQueries(a, 32, 3)
	cfg := loadConfig{Addr: srv.Listener.Addr().String(), Queries: qs, Batch: 8, Batches: 20, Reloads: 2, Rate: 5000, Count: 40, Conns: 2}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 20+2+40 || res.Failed != 0 || res.Wrong != 0 {
		t.Fatalf("attempted %d failed %d wrong %d, want 62 0 0", res.Attempted, res.Failed, res.Wrong)
	}
	if res.Samples != 40 || len(res.ReloadS) != 2 || res.Lookups != 20*8 {
		t.Fatalf("samples %d reloads %d lookups %d", res.Samples, len(res.ReloadS), res.Lookups)
	}

	qs[0].Want = (qs[0].Want + 1) % 8 // in the first batch and sent once in phase 2
	cfg.Queries, cfg.Batches, cfg.Reloads, cfg.Count = qs, 1, 0, 1
	if res, err = runLoad(cfg); err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 2 || res.Failed != 2 || res.Wrong != 2 {
		t.Fatalf("attempted %d failed %d wrong %d, want 2 2 2", res.Attempted, res.Failed, res.Wrong)
	}
}

// TestPartitionMatchesFacade holds partition's spotlight copy to the path
// cmd/adwise takes, adwise.PartitionFileSpotlight: with a scoring shard
// budget and a vertex budget both split across the instances, the two
// must write the same bytes.
func TestPartitionMatchesFacade(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.RMAT(12, 20_000, 0.57, 0.19, 0.19, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.txt")
	if err := graph.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		strategy string
		window   int
	}{{"hdrf", 0}, {"adwise", 64}} {
		m := Meta{K: 8, Z: 2, Spread: 4, Strategy: c.strategy, Window: c.window, Edges: len(g.Edges), Graph: path}
		spec := workloadSpec(m)
		spec.ScoreWorkers = 3
		spec.VertexBudgetBytes = 48 << 10
		mine := filepath.Join(dir, c.strategy+"-part.tsv")
		if _, err := partition(m, spec, mine, nil); err != nil {
			t.Fatal(err)
		}
		cfg := adwise.SpotlightConfig{K: m.K, Z: m.Z, Spread: m.Spread}
		facade := func(spec runtime.Spec) []byte {
			a, err := adwise.PartitionFileSpotlight(m.Strategy, path, cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dir, c.strategy+"-facade.tsv")
			if err := adwise.SaveAssignment(out, a); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		got, err := os.ReadFile(mine)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, facade(spec)) {
			t.Errorf("%s: partition and PartitionFileSpotlight wrote different assignments", c.strategy)
		}
		// The budget must bind, or the split above is not under test.
		unsplit := spec
		unsplit.VertexBudgetBytes *= 2
		if bytes.Equal(facade(unsplit), facade(spec)) {
			t.Errorf("%s: a vertex budget of %d bytes does not change the assignment", c.strategy, spec.VertexBudgetBytes)
		}
	}
}

func TestSplitsMatchRuntime(t *testing.T) {
	for _, c := range []struct {
		total, z int
		want     []int
	}{{0, 2, []int{0, 0}}, {3, 2, []int{2, 1}}, {1, 3, []int{1, 1, 1}}, {8, 3, []int{3, 3, 2}}} {
		if got := splitScoreWorkers(c.total, c.z); !slices.Equal(got, c.want) {
			t.Errorf("splitScoreWorkers(%d, %d) = %v, want %v", c.total, c.z, got, c.want)
		}
	}
	if got := splitVertexBudget(10, 3); !slices.Equal(got, []int64{4, 3, 3}) {
		t.Errorf("splitVertexBudget(10, 3) = %v", got)
	}
}
