package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	adwise "github.com/adwise-go/adwise"
	"github.com/adwise-go/adwise/internal/graph"
)

type spanKey struct{}

// spanHandler wraps the serving handler: each request gets a handler span
// whose parent and request id are the client span named in the request
// header, so the client span's self time is the transport share of the
// round trip.
func spanHandler(rec *Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // an absent header leaves the span unjoined
		name := "serve.handler"
		switch r.URL.Path {
		case "/v1/edges":
			name = "serve.handler.batch"
		case "/v1/edge":
			name = "serve.handler.edge"
		case "/v1/reload":
			name = "serve.handler.reload"
		}
		sp := rec.Begin(name, req, req)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp.ID)))
		rec.End(sp)
	})
}

// serveInProcess is the serving leg in this process. It makes the calls
// cmd/adwise-serve -assignment makes — LoadAssignment, BuildIndex, the
// instrumented handler plus POST /v1/reload, NewLookupServer — so handler
// spans can be recorded, and drives the same load. With a nil recorder it
// is the untraced baseline for the traced leg, and returns no layers.
func serveInProcess(m Meta, cfg loadConfig, rec *Recorder) (loadResult, map[string]float64, error) {
	load := func(parent int64) (*adwise.LookupIndex, error) {
		sp := rec.Begin("metrics.read_tsv", parent, 0)
		a, err := adwise.LoadAssignment(m.Serve)
		rec.End(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.Begin("serve.build", parent, 0)
		defer rec.End(sp)
		return adwise.BuildIndex(a)
	}
	idx, err := load(0)
	if err != nil {
		return loadResult{}, nil, err
	}

	store := adwise.NewLookupStore(idx)
	ins := adwise.NewServeInstruments(adwise.NewMetricRegistry())
	mux := http.NewServeMux()
	mux.Handle("/", adwise.ServeHandlerInstrumented(store, ins))
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		parent, _ := r.Context().Value(spanKey{}).(int64)
		idx, err := load(parent)
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
			return
		}
		store.Swap(idx)
		fmt.Fprintf(w, "{\"status\":\"reloaded\",\"generation\":%d}\n", store.Generation())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return loadResult{}, nil, err
	}
	srv := adwise.NewLookupServer(spanHandler(rec, mux))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cfg.Addr, cfg.Rec = ln.Addr().String(), rec
	res, err := runLoad(cfg)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if err != nil || rec == nil {
		return res, nil, err
	}

	nsPerLookup := indexCost(idx, cfg.Queries)
	spans := rec.Spans()
	self := SelfTimes(spans)
	var transport []int64
	for _, s := range spans {
		if s.Name == "client.batch" {
			transport = append(transport, self[s.ID])
		}
	}
	l := map[string]float64{
		"metrics.read_tsv_s":         medianDur(spans, "metrics.read_tsv") / 1e9,
		"serve.build_s":              medianDur(spans, "serve.build") / 1e9,
		"serve.index_ns_per_lookup":  nsPerLookup,
		"serve.handler_batch_p50_us": res.HandlerBatchP50us,
		"serve.handler_edge_p50_us":  res.HandlerEdgeP50us,
		"serve.transport_batch_us":   median(transport) / 1e3,
		"serve.client_tail_ms":       res.TailMs,
		"serve.client_tail_pct":      res.TailPct,
		"serve.client_samples":       float64(res.Samples),
		"serve.gen_late_ms":          res.GenLateMs,
	}
	return res, l, nil
}

// indexCost times Index.PartitionBatch over the query pool directly, with
// no HTTP or JSON in the way, and returns nanoseconds per lookup.
func indexCost(idx *adwise.LookupIndex, qs []Query) float64 {
	edges := make([]graph.Edge, len(qs))
	for i, q := range qs {
		edges[i] = q.Edge
	}
	dst := make([]int32, len(edges))
	var lookups int
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		dst = idx.PartitionBatch(edges, dst)
		lookups += len(edges)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(lookups)
}

func median(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return float64(s[n/2-1]+s[n/2]) / 2
	}
	return float64(s[len(s)/2])
}

func medianDur(spans []Span, name string) float64 {
	var d []int64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, s.Dur())
		}
	}
	return median(d)
}
