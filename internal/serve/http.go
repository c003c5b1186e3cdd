package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metric"
)

// NewServer wraps a handler in an http.Server with the slow-client
// timeouts a public-facing lookup service needs: without them, clients
// that trickle header or body bytes pin goroutines and file descriptors
// indefinitely. Lookups are sub-microsecond, so generous bounds lose
// nothing.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// MaxBatch bounds the edge count of one /v1/edges request.
const MaxBatch = 1 << 16

// maxBatchBodyBytes bounds the /v1/edges request body before decoding, so
// the MaxBatch cap bounds memory and not just the post-decode length. A
// maximal legal batch is ~24 bytes of minified JSON per edge; 64 bytes
// per edge leaves room for indented encodings of any legal batch.
const maxBatchBodyBytes = MaxBatch * 64

// NewHandler returns the lookup service's HTTP API over a store:
//
//	GET  /healthz                     liveness + readiness (503 until an index lands)
//	GET  /v1/edge?src=S&dst=D         partition of one edge
//	GET  /v1/vertex?v=V               replica set of one vertex
//	POST /v1/edges {"edges":[[s,d],…]} batch edge lookup
//	GET  /v1/stats                    index statistics + uptime (+ metrics when instrumented)
//
// The /v1/edges body must match the strict grammar in wire.go: exactly
// {"edges":[[src,dst],...]} with one case-sensitive "edges" key, 1 to
// MaxBatch pairs of exactly two integers in [0, 2^32) without signs,
// fractions, exponents or leading zeros, only JSON whitespace between
// tokens and around the object, and at most 4 MiB in all. Anything else
// is a 400. The answer is {"partitions":[p,...]}, -1 for unknown edges.
//
// Every handler resolves the store view once and answers entirely from
// that immutable snapshot, so responses stay self-consistent across a
// concurrent Swap.
func NewHandler(s *Store) http.Handler { return NewInstrumentedHandler(s, nil) }

// statsResponse is the /v1/stats body: the index statistics inline (the
// historical shape), plus serving-tier fields and, when the handler is
// instrumented, the full metrics snapshot of the same registry that
// serves /v1/metrics.
type statsResponse struct {
	Stats
	Generation    uint64           `json:"generation"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Metrics       *metric.Snapshot `json:"metrics,omitempty"`
}

// NewInstrumentedHandler is NewHandler with telemetry: per-endpoint
// request counters and latency histograms recorded on ins (nil disables
// instrumentation entirely — the uninstrumented handler has no
// per-request overhead), plus GET /v1/metrics serving the registry
// snapshot. The lookup hot paths underneath (Index.Partition,
// PartitionBatch) stay zero-alloc either way; instrumentation happens in
// the HTTP layer around them.
func NewInstrumentedHandler(s *Store, ins *Instruments) http.Handler {
	var clk clock.Clock = clock.Real{}
	if ins != nil {
		clk = ins.Registry.Clock()
	}
	started := clk.Now()

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.View() == nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "empty"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "generation": s.Generation()})
	})
	mux.HandleFunc("GET /v1/edge", ins.instrument(s, insCounter(ins, func(i *Instruments) *metric.Counter { return i.reqEdge }),
		insTimer(ins, func(i *Instruments) *metric.Timer { return i.latEdge }), withIndex(s, handleEdge)))
	mux.HandleFunc("GET /v1/vertex", ins.instrument(s, insCounter(ins, func(i *Instruments) *metric.Counter { return i.reqVertex }),
		insTimer(ins, func(i *Instruments) *metric.Timer { return i.latVertex }), withIndex(s, handleVertex)))
	mux.HandleFunc("POST /v1/edges", ins.instrument(s, insCounter(ins, func(i *Instruments) *metric.Counter { return i.reqBatch }),
		insTimer(ins, func(i *Instruments) *metric.Timer { return i.latBatch }), withIndex(s, makeBatchHandler(ins))))
	mux.HandleFunc("GET /v1/stats", ins.instrument(s, insCounter(ins, func(i *Instruments) *metric.Counter { return i.reqStats }), nil,
		withIndex(s, func(w http.ResponseWriter, r *http.Request, ix *Index) {
			writeJSON(w, http.StatusOK, statsResponse{
				Stats:         ix.Stats(),
				Generation:    s.Generation(),
				UptimeSeconds: clk.Now().Sub(started).Seconds(),
				Metrics:       ins.snapshot(),
			})
		})))
	if ins != nil {
		mux.HandleFunc("GET /v1/metrics", ins.instrument(s, ins.reqMetrics, nil,
			func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusOK, ins.Registry.Snapshot())
			}))
	}
	return mux
}

// insCounter and insTimer pluck a handle off possibly-nil Instruments, so
// route wiring stays declarative.
func insCounter(ins *Instruments, get func(*Instruments) *metric.Counter) *metric.Counter {
	if ins == nil {
		return nil
	}
	return get(ins)
}

func insTimer(ins *Instruments, get func(*Instruments) *metric.Timer) *metric.Timer {
	if ins == nil {
		return nil
	}
	return get(ins)
}

// makeBatchHandler returns the /v1/edges handler, counting looked-up
// edges on the instruments when present.
func makeBatchHandler(ins *Instruments) func(http.ResponseWriter, *http.Request, *Index) {
	return func(w http.ResponseWriter, r *http.Request, ix *Index) {
		n := handleEdgeBatch(w, r, ix)
		if ins != nil && n > 0 {
			ins.batchEdges.Inc(int64(n))
		}
	}
}

// withIndex resolves the store view once per request and rejects requests
// arriving before the first index is installed.
func withIndex(s *Store, h func(http.ResponseWriter, *http.Request, *Index)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ix := s.View()
		if ix == nil {
			writeError(w, http.StatusServiceUnavailable, "no index loaded")
			return
		}
		h(w, r, ix)
	}
}

func handleEdge(w http.ResponseWriter, r *http.Request, ix *Index) {
	src, err := vertexParam(r, "src")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	dst, err := vertexParam(r, "dst")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, ok := ix.Partition(src, dst)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("edge (%d,%d) not in the partitioning", src, dst))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"src": src, "dst": dst, "partition": p})
}

func handleVertex(w http.ResponseWriter, r *http.Request, ix *Index) {
	v, err := vertexParam(r, "v")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	replicas := ix.Replicas(v)
	if replicas.Empty() {
		writeError(w, http.StatusNotFound, fmt.Sprintf("vertex %d not in the partitioning", v))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"vertex":   v,
		"count":    replicas.Count(),
		"replicas": replicas.Members(),
	})
}

func vertexParam(r *http.Request, name string) (graph.VertexID, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing %q parameter", name)
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return graph.VertexID(v), nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
