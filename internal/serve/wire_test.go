package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/adwise-go/adwise/internal/graph"
)

// oracleDecode is the batch decode the endpoint used before the
// hand-written codec: encoding/json into [][2]uint32 through the same
// body cap with unknown fields disallowed, then the empty and MaxBatch
// checks. It accepts exactly the bodies the earlier endpoint answered
// with 200.
func oracleDecode(body []byte) ([]graph.Edge, error) {
	var req struct {
		Edges [][2]uint32 `json:"edges"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBatchBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if len(req.Edges) == 0 {
		return nil, errors.New("empty edge batch")
	}
	if len(req.Edges) > MaxBatch {
		return nil, fmt.Errorf("batch of %d edges exceeds the %d cap", len(req.Edges), MaxBatch)
	}
	edges := make([]graph.Edge, len(req.Edges))
	for i, pair := range req.Edges {
		edges[i] = graph.Edge{Src: graph.VertexID(pair[0]), Dst: graph.VertexID(pair[1])}
	}
	return edges, nil
}

// acceptBatch is the hand-written decoder's verdict as the handler
// applies it: the grammar, then a non-empty edge list.
func acceptBatch(body []byte) ([]graph.Edge, bool) {
	edges, err := decodeBatch(body, nil)
	return edges, err == nil && len(edges) > 0
}

// batchJSON renders edges as a minified {"edges":[[s,d],...]} body.
func batchJSON(edges []graph.Edge) []byte {
	var b bytes.Buffer
	b.WriteString(`{"edges":[`)
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", e.Src, e.Dst)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

func seqEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	return edges
}

// wireVerdict classifies a body by what the oracle and the handler do
// with it.
type wireVerdict int

const (
	bothAccept wireVerdict = iota // oracle and handler accept, same edges
	narrowed                      // oracle accepts, handler answers 400
	bothReject                    // oracle rejects, handler answers 400
)

type wireCase struct {
	name    string
	body    string
	verdict wireVerdict
	edges   []graph.Edge // what the oracle decodes, unless bothReject
}

// wireCases lists the accepted shapes, every narrowing of the grammar
// against encoding/json, and the rejections both decoders share.
func wireCases() []wireCase {
	e := func(pairs ...uint32) []graph.Edge {
		out := make([]graph.Edge, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			out = append(out, graph.Edge{Src: graph.VertexID(pairs[i]), Dst: graph.VertexID(pairs[i+1])})
		}
		return out
	}
	pad := strings.Repeat(" ", maxBatchBodyBytes)
	full := seqEdges(MaxBatch)
	return []wireCase{
		{"minimal", `{"edges":[[0,1]]}`, bothAccept, e(0, 1)},
		{"several", `{"edges":[[0,1],[5,6],[2,1]]}`, bothAccept, e(0, 1, 5, 6, 2, 1)},
		{"whitespace", " \t\r\n{ \"edges\" : [ [ 1 , 2 ] ,\n[3,4] ] } \n", bothAccept, e(1, 2, 3, 4)},
		{"max uint32", `{"edges":[[4294967295,0]]}`, bothAccept, e(4294967295, 0)},
		{"max batch", string(batchJSON(full)), bothAccept, full},

		{"key Edges", `{"Edges":[[1,2]]}`, narrowed, e(1, 2)},
		{"key EDGES", `{"EDGES":[[1,2]]}`, narrowed, e(1, 2)},
		{"key with long s", `{"edgeſ":[[1,2]]}`, narrowed, e(1, 2)},
		{"key escaped", `{"\u0065dges":[[1,2]]}`, narrowed, e(1, 2)},
		{"key escaped solidus", `{"edges\/":[[1,2]]}`, bothReject, nil},
		{"null pair", `{"edges":[null]}`, narrowed, e(0, 0)},
		{"null number", `{"edges":[[null,5]]}`, narrowed, e(0, 5)},
		{"empty pair", `{"edges":[[]]}`, narrowed, e(0, 0)},
		{"one number", `{"edges":[[1]]}`, narrowed, e(1, 0)},
		{"three numbers", `{"edges":[[1,2,3]]}`, narrowed, e(1, 2)},
		{"repeated key", `{"edges":[[7,8]],"edges":[[null,5]]}`, narrowed, e(7, 5)},
		{"trailing garbage", `{"edges":[[1,2]]} x`, narrowed, e(1, 2)},
		{"trailing object", `{"edges":[[1,2]]}{"edges":[[3,4]]}`, narrowed, e(1, 2)},
		{"trailing bracket", `{"edges":[[1,2]]}]`, narrowed, e(1, 2)},
		{"trailing padding over the cap", `{"edges":[[1,2]]}` + pad, narrowed, e(1, 2)},

		{"empty body", ``, bothReject, nil},
		{"null body", `null`, bothReject, nil},
		{"empty object", `{}`, bothReject, nil},
		{"null edges", `{"edges":null}`, bothReject, nil},
		{"empty batch", `{"edges":[]}`, bothReject, nil},
		{"not an object", `[[1,2]]`, bothReject, nil},
		{"bogus", `{bogus`, bothReject, nil},
		{"other key", `{"other":1}`, bothReject, nil},
		{"unknown field", `{"edges":[[1,2]],"x":1}`, bothReject, nil},
		{"fraction", `{"edges":[[1.5,2]]}`, bothReject, nil},
		{"integral fraction", `{"edges":[[1.0,2]]}`, bothReject, nil},
		{"exponent", `{"edges":[[1e2,2]]}`, bothReject, nil},
		{"zero exponent", `{"edges":[[0E0,2]]}`, bothReject, nil},
		{"negative", `{"edges":[[-1,2]]}`, bothReject, nil},
		{"minus zero", `{"edges":[[-0,2]]}`, bothReject, nil},
		{"plus sign", `{"edges":[[+1,2]]}`, bothReject, nil},
		{"leading zero", `{"edges":[[01,2]]}`, bothReject, nil},
		{"double zero", `{"edges":[[1,00]]}`, bothReject, nil},
		{"2^32", `{"edges":[[4294967296,1]]}`, bothReject, nil},
		{"huge", `{"edges":[[1,99999999999999999999999]]}`, bothReject, nil},
		{"string", `{"edges":[["1",2]]}`, bothReject, nil},
		{"bool", `{"edges":[[true,2]]}`, bothReject, nil},
		{"trailing comma", `{"edges":[[1,2],]}`, bothReject, nil},
		{"pair trailing comma", `{"edges":[[1,2,]]}`, bothReject, nil},
		{"missing comma", `{"edges":[[1,2][3,4]]}`, bothReject, nil},
		{"truncated", `{"edges":[[1,2]`, bothReject, nil},
		{"truncated number", `{"edges":[[1,2`, bothReject, nil},
		{"truncated key", `{"edg`, bothReject, nil},
		{"unquoted key", `{edges:[[1,2]]}`, bothReject, nil},
		{"vertical tab", "{\"edges\":[[1,\v2]]}", bothReject, nil},
		{"padded over the cap", `{"edges":[` + pad + `[1,2]]}`, bothReject, nil},
		{"batch over the cap", string(batchJSON(seqEdges(MaxBatch + 1))), bothReject, nil},
	}
}

// postBatch posts body to h's batch route and returns the recorded
// response.
func postBatch(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/edges", strings.NewReader(body)))
	return rec
}

func TestBatchWireCases(t *testing.T) {
	ix := fixedIndex(t)
	h := NewHandler(NewStore(ix))
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			oracle, oerr := oracleDecode([]byte(tc.body))
			if (oerr == nil) != (tc.verdict != bothReject) {
				t.Fatalf("oracle error = %v, want accepted=%v", oerr, tc.verdict != bothReject)
			}
			if !slices.Equal(oracle, tc.edges) {
				t.Fatalf("oracle decoded %d edges (%.40v), want %.40v", len(oracle), oracle, tc.edges)
			}
			rec := postBatch(t, h, tc.body)
			if tc.verdict != bothAccept {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400 (body %.80q)", rec.Code, rec.Body.String())
				}
				return
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d, want 200 (body %.200q)", rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", got)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(map[string]any{"partitions": ix.PartitionBatch(tc.edges, nil)}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("body = %.200q, want %.200q", rec.Body.String(), want.String())
			}
		})
	}
}

// TestBatchCapClosesConnection pins that an oversized body goes through
// http.MaxBytesReader, which tells the server to close the connection
// rather than drain the rest of the body.
func TestBatchCapClosesConnection(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewStore(fixedIndex(t))))
	defer srv.Close()
	body := `{"edges":[` + strings.Repeat(" ", maxBatchBodyBytes) + `[1,2]]}`
	resp, err := srv.Client().Post(srv.URL+"/v1/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !resp.Close {
		t.Errorf("oversized body: status %d, close %v; want 400 and a closed connection", resp.StatusCode, resp.Close)
	}
}

func TestAppendPartitionsMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 18))
	for n := range 200 {
		parts := make([]int32, n)
		for i := range parts {
			switch rng.IntN(4) {
			case 0:
				parts[i] = -1
			case 1:
				parts[i] = rng.Int32()
			default:
				parts[i] = rng.Int32N(64)
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"partitions": parts}); err != nil {
			t.Fatal(err)
		}
		if got := appendPartitions(nil, parts); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendPartitions(%v) = %q, want %q", parts, got, want.Bytes())
		}
	}
}

// FuzzBatchBody checks the hand-written decoder against the encoding/json
// oracle in both directions: every body it accepts, the oracle accepts
// with the same edges; and every edge list the oracle accepts, it accepts
// in both of encoding/json's layouts.
func FuzzBatchBody(f *testing.F) {
	for _, tc := range wireCases() {
		// The four rows at the body and batch caps are too large for a
		// useful corpus entry; TestBatchWireCases covers them.
		if len(tc.body) <= 1<<10 {
			f.Add([]byte(tc.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		oracle, oerr := oracleDecode(body)
		if got, ok := acceptBatch(body); ok {
			if oerr != nil {
				t.Fatalf("decoder accepted %q, oracle rejects it: %v", body, oerr)
			}
			if !slices.Equal(got, oracle) {
				t.Fatalf("decoder read %v from %q, oracle %v", got, body, oracle)
			}
		}
		if oerr != nil {
			return
		}
		pairs := make([][2]uint32, len(oracle))
		for i, e := range oracle {
			pairs[i] = [2]uint32{uint32(e.Src), uint32(e.Dst)}
		}
		req := map[string]any{"edges": pairs}
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "\t", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range [][]byte{compact, indented} {
			if got, ok := acceptBatch(enc); !ok || !slices.Equal(got, oracle) {
				t.Fatalf("decoder rejected or misread %q (oracle edges %v, got %v)", enc, oracle, got)
			}
		}
	})
}

// replayBody is a request body that can be rewound to the same bytes,
// so one request value can be served repeatedly without allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps the status and the last
// body in reused storage.
type discardWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (d *discardWriter) Header() http.Header { return d.header }

func (d *discardWriter) WriteHeader(status int) { d.status = status }

func (d *discardWriter) Write(p []byte) (int, error) { return d.body.Write(p) }

// batchReplay returns a reusable POST /v1/edges request over body and a
// serve function that rewinds it and runs one request through h.
func batchReplay(h http.Handler, body []byte) (*discardWriter, func()) {
	rb := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/edges", nil)
	req.Body = rb
	w := &discardWriter{header: make(http.Header)}
	return w, func() {
		rb.Reset(body)
		w.status = 0
		w.body.Reset()
		h.ServeHTTP(w, req)
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestBatchHandlerAllocs pins the batch route's steady state: the pooled
// scratch leaves only http.MaxBytesReader's wrapper allocating per
// request.
func TestBatchHandlerAllocs(t *testing.T) {
	a := testAssignment(t, "dbh", 8)
	ix, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	edges := a.Edges[:256]
	w, serveOnce := batchReplay(NewHandler(NewStore(ix)), batchJSON(edges))
	if allocs := testing.AllocsPerRun(200, serveOnce); allocs > 1 && !raceEnabled {
		t.Errorf("batch route allocates %v times per request, want at most 1", allocs)
	}
	if w.status != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.status)
	}
	want := appendPartitions(nil, ix.PartitionBatch(edges, nil))
	if !bytes.Equal(w.body.Bytes(), want) {
		t.Errorf("body = %.80q, want %.80q", w.body.String(), want)
	}
}
