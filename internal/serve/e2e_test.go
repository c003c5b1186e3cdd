package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
)

// TestEndToEnd walks the whole consumption path: partition a generated
// graph with a registry strategy, build the serving index, and resolve a
// sample of edges one by one, every edge in batches, and a sample of
// vertices over real HTTP, checking the responses against the assignment
// ground truth.
func TestEndToEnd(t *testing.T) {
	a := testAssignment(t, "adwise", 8)
	ix, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(NewStore(ix)))
	defer srv.Close()

	// Ground truth under last-write-wins, matching the index contract.
	want := make(map[[2]uint32]int32, a.Len())
	for i, e := range a.Edges {
		want[[2]uint32{uint32(e.Src), uint32(e.Dst)}] = a.Parts[i]
	}

	checked := 0
	for key, p := range want {
		if checked >= 200 {
			break
		}
		checked++
		body := getJSON(t, srv, fmt.Sprintf("/v1/edge?src=%d&dst=%d", key[0], key[1]), http.StatusOK)
		if got := int32(body["partition"].(float64)); got != p {
			t.Fatalf("edge (%d,%d): served partition %d, want %d", key[0], key[1], got, p)
		}
	}

	// Every assignment edge through /v1/edges, in 256-edge chunks. The
	// first chunk also carries edges on vertices the graph lacks, which
	// must answer -1, and the last chunk is partial.
	var maxV graph.VertexID
	for _, e := range a.Edges {
		maxV = max(maxV, e.Src, e.Dst)
	}
	queries := append([]graph.Edge(nil), a.Edges[:100]...)
	for i := graph.VertexID(1); i <= 16; i++ {
		queries = append(queries, graph.Edge{Src: maxV + i, Dst: i}, graph.Edge{Src: maxV + i, Dst: maxV + i + 1})
	}
	queries = append(queries, a.Edges[100:]...)
	if len(queries)%256 == 0 {
		queries = append(queries, graph.Edge{Src: maxV + 1, Dst: maxV + 1})
	}
	wantBatch := func(e graph.Edge) int32 {
		if p, ok := want[[2]uint32{uint32(e.Src), uint32(e.Dst)}]; ok {
			return p
		}
		return -1
	}
	for lo := 0; lo < len(queries); lo += 256 {
		chunk := queries[lo:min(lo+256, len(queries))]
		resp, err := srv.Client().Post(srv.URL+"/v1/edges", "application/json", bytes.NewReader(batchJSON(chunk)))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Partitions []int32 `json:"partitions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("batch at %d: status %d, decoding: %v", lo, resp.StatusCode, err)
		}
		if len(out.Partitions) != len(chunk) {
			t.Fatalf("batch at %d: %d partitions for %d edges", lo, len(out.Partitions), len(chunk))
		}
		for i, e := range chunk {
			if got, w := out.Partitions[i], wantBatch(e); got != w {
				t.Fatalf("batch at %d: edge %v served partition %d, want %d", lo, e, got, w)
			}
		}
	}

	// Replica sets and stats follow the distinct-edge view the index
	// serves (last write wins on duplicate stream edges).
	deduped := dedupe(a)
	sets := deduped.ReplicaSets()
	checked = 0
	for v, set := range sets {
		if checked >= 200 {
			break
		}
		checked++
		body := getJSON(t, srv, fmt.Sprintf("/v1/vertex?v=%d", v), http.StatusOK)
		if got := int(body["count"].(float64)); got != set.Count() {
			t.Fatalf("vertex %d: served %d replicas, want %d", v, got, set.Count())
		}
	}

	stats := getJSON(t, srv, "/v1/stats", http.StatusOK)
	s := metrics.Summarize(deduped)
	if got := int(stats["vertices"].(float64)); got != s.Vertices {
		t.Errorf("served vertices = %d, want %d", got, s.Vertices)
	}
	if got := stats["replication_degree"].(float64); got != s.ReplicationDegree {
		t.Errorf("served replication degree = %v, want %v", got, s.ReplicationDegree)
	}
}
