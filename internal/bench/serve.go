package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	gort "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adwise-go/adwise/internal/clock"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metric"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/serve"
	"github.com/adwise-go/adwise/internal/stream"
)

// serveBatchSize is the edge count of one /v1/edges batch request.
const serveBatchSize = 256

// Serve measures the partition-lookup service under closed-loop HTTP load:
// a web-preset graph is partitioned (dbh — quality is irrelevant here, the
// index shape is the same), indexed, and served by the instrumented
// handler on a loopback listener; then a sweep of closed-loop generators
// (every worker waits for its response before sending the next request)
// drives GET /v1/edge and POST /v1/edges at increasing concurrency.
//
// Each cell reports client-side throughput (requests/s, edge lookups/s,
// lookups/s per core) and the server-side latency quantiles from the new
// telemetry histograms — the p50/p99 columns are read out of the
// serve.*.latency timers, so the experiment also exercises the metric
// pipeline end to end. Each cell gets a fresh registry, so quantiles are
// per-cell, not cumulative.
func Serve(cfg Config) (*Table, error) {
	tab := &Table{
		ID: "Serve",
		Title: fmt.Sprintf("closed-loop lookup serving, k=%d, %d cores, batch=%d",
			cfg.K, gort.GOMAXPROCS(0), serveBatchSize),
		Columns: []string{"endpoint", "conc", "requests", "lookups/s", "lookups/s/core", "req/s", "p50", "p99"},
		Notes: []string{
			"closed-loop: each of conc workers issues its next request only after the previous response;",
			"p50/p99 are server-side, from the serve.*.latency telemetry histograms (handler wall time,",
			"excluding client and loopback transport); lookups/s counts resolved edges, so the batch",
			"endpoint's rows show the per-request amortisation of transport and JSON overhead",
		},
	}

	g, err := gen.PresetWeb.Generate(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: generating web graph: %w", err)
	}
	st, err := runtime.New("dbh", runtime.Spec{K: cfg.K, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	a, err := st.Run(stream.FromEdges(g.Edges))
	if err != nil {
		return nil, fmt.Errorf("bench: partitioning for serving: %w", err)
	}
	ix, err := serve.Build(a)
	if err != nil {
		return nil, err
	}

	// Request budget per cell, scaled like the graph: enough for stable
	// quantiles at full scale, fast at smoke scale.
	requests := int(200_000 * cfg.Scale)
	if requests < 800 {
		requests = 800
	}
	batchRequests := requests / 64
	if batchRequests < 50 {
		batchRequests = 50
	}

	batches := batchBodies(a.Edges, 8)
	if err := checkServe(ix, a.Edges, batches); err != nil {
		return nil, fmt.Errorf("bench: serve answers: %w", err)
	}

	cores := gort.GOMAXPROCS(0)
	sweep := []int{1, cores, 2 * cores}
	prev := 0
	for _, conc := range sweep {
		if conc == prev {
			continue
		}
		prev = conc
		for _, ep := range []string{"edge", "edges"} {
			reqs := requests
			if ep == "edges" {
				reqs = batchRequests
			}
			cell, err := serveCell(ix, a.Edges, batches, ep, conc, reqs, cfg.clock())
			if err != nil {
				return tab, fmt.Errorf("bench: serve %s conc=%d: %w", ep, conc, err)
			}
			perCore := cell.lookupsPerSec / float64(cores)
			tab.AddRow("/v1/"+ep, conc, reqs,
				fmt.Sprintf("%.0f", cell.lookupsPerSec),
				fmt.Sprintf("%.0f", perCore),
				fmt.Sprintf("%.0f", cell.reqPerSec),
				cell.p50, cell.p99)
			cfg.progressf("  serve /v1/%s conc=%d: %.0f lookups/s (%.0f/core), p50=%v p99=%v",
				ep, conc, cell.lookupsPerSec, perCore, cell.p50, cell.p99)
		}
	}
	return tab, nil
}

// serveResult is one load cell's measurement.
type serveResult struct {
	reqPerSec     float64
	lookupsPerSec float64
	p50, p99      time.Duration
}

// serveLoopback serves h on a fresh loopback listener and returns its
// base URL and a function that shuts the server down and waits for it.
func serveLoopback(h http.Handler) (string, func(), error) {
	srv := serve.NewServer(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	stop := func() {
		srv.Close()
		<-serveDone
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// checkServe checks the handler's answers before any timing, so a codec
// that served wrong partitions cannot pass on status codes alone: every
// pre-built batch body against Index.PartitionBatch over that body's
// edges, and a sample of single-edge lookups against Index.Partition.
func checkServe(ix *serve.Index, edges []graph.Edge, batches []serveBatch) error {
	base, stop, err := serveLoopback(serve.NewHandler(serve.NewStore(ix)))
	if err != nil {
		return err
	}
	defer stop()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	// fetch GETs url, or POSTs body to it when body is non-nil, and
	// decodes a 200 answer into out.
	fetch := func(url string, body []byte, out any) error {
		var (
			resp *http.Response
			err  error
		)
		if body == nil {
			resp, err = client.Get(url)
		} else {
			resp, err = client.Post(url, "application/json", bytes.NewReader(body))
		}
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	for b, batch := range batches {
		var out struct {
			Partitions []int32 `json:"partitions"`
		}
		if err := fetch(base+"/v1/edges", batch.body, &out); err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
		if want := ix.PartitionBatch(batch.edges, nil); !slices.Equal(out.Partitions, want) {
			return fmt.Errorf("batch %d: served partitions differ from the index", b)
		}
	}
	for i := 0; i < 64; i++ {
		e := edges[(i*16381)%len(edges)]
		var out struct {
			Partition int32 `json:"partition"`
		}
		if err := fetch(fmt.Sprintf("%s/v1/edge?src=%d&dst=%d", base, e.Src, e.Dst), nil, &out); err != nil {
			return fmt.Errorf("edge %v: %w", e, err)
		}
		if want, _ := ix.Partition(e.Src, e.Dst); out.Partition != want {
			return fmt.Errorf("edge %v: served partition %d, the index holds %d", e, out.Partition, want)
		}
	}
	return nil
}

// serveCell serves ix on a fresh loopback listener with a fresh registry
// and drives it with conc closed-loop workers issuing total requests;
// batch workers cycle through the pre-built batches.
func serveCell(ix *serve.Index, edges []graph.Edge, batches []serveBatch, endpoint string, conc, total int, clk clock.Clock) (serveResult, error) {
	reg := metric.New()
	base, stop, err := serveLoopback(serve.NewInstrumentedHandler(serve.NewStore(ix), serve.NewInstruments(reg)))
	if err != nil {
		return serveResult{}, err
	}
	defer stop()

	transport := &http.Transport{MaxIdleConns: conc * 2, MaxIdleConnsPerHost: conc * 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	var (
		next     atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	lookupsPerReq := 1
	latName := serve.MetricEdgeLatency
	if endpoint == "edges" {
		lookupsPerReq = serveBatchSize
		latName = serve.MetricBatchLatency
	}

	start := clk.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				var (
					resp *http.Response
					err  error
				)
				if endpoint == "edges" {
					resp, err = client.Post(base+"/v1/edges", "application/json",
						bytes.NewReader(batches[i%len(batches)].body))
				} else {
					e := edges[(i*16381)%len(edges)]
					resp, err = client.Get(fmt.Sprintf("%s/v1/edge?src=%d&dst=%d", base, e.Src, e.Dst))
				}
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("status %d", resp.StatusCode))
				}
			}
		}()
	}
	wg.Wait()
	wall := clk.Now().Sub(start)

	if n := failures.Load(); n > 0 {
		return serveResult{}, fmt.Errorf("%d/%d requests failed (first: %v)", n, total, firstErr.Load())
	}
	snap := reg.Snapshot()
	tp, ok := snap.Timer(latName)
	if !ok || tp.Count != int64(total) {
		return serveResult{}, fmt.Errorf("latency histogram %s recorded %d requests, want %d", latName, tp.Count, total)
	}
	secs := wall.Seconds()
	return serveResult{
		reqPerSec:     float64(total) / secs,
		lookupsPerSec: float64(total*lookupsPerReq) / secs,
		p50:           time.Duration(tp.P50Ns),
		p99:           time.Duration(tp.P99Ns),
	}, nil
}

// serveBatch is one pre-built /v1/edges request body and the edges it
// carries.
type serveBatch struct {
	body  []byte
	edges []graph.Edge
}

// batchBodies builds n distinct /v1/edges requests of serveBatchSize
// edges each, striding through the edge list so bodies differ.
func batchBodies(edges []graph.Edge, n int) []serveBatch {
	batches := make([]serveBatch, 0, n)
	for b := 0; b < n; b++ {
		batch := serveBatch{edges: make([]graph.Edge, serveBatchSize)}
		pairs := make([][2]uint32, serveBatchSize)
		for i := range pairs {
			e := edges[(b*serveBatchSize*7+i*31)%len(edges)]
			batch.edges[i] = e
			pairs[i] = [2]uint32{uint32(e.Src), uint32(e.Dst)}
		}
		batch.body, _ = json.Marshal(map[string]any{"edges": pairs})
		batches = append(batches, batch)
	}
	return batches
}
