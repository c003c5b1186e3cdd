// Command adwise-serve exposes a completed partitioning as a sharded
// partition-lookup HTTP service: edge→partition and vertex→replica-set
// queries over the immutable index, with atomic hot-reload.
//
// Usage:
//
//	adwise-serve -assignment parts.tsv -addr :8372
//	adwise-serve -in graph.txt -algo adwise -k 32 -latency 2s -addr :8372
//
// With -assignment the service loads a precomputed assignment TSV (from
// adwise -out) and POST /v1/reload re-reads it, swapping the rebuilt index
// in without dropping in-flight lookups. With -in the named registry
// strategy partitions the graph first, exactly as adwise does with the
// same flags: z instances (one by default) under the spotlight spread,
// each streaming a disjoint byte range of the file, so the edge list is
// never held in memory. The service serves the result.
//
// API: GET /v1/edge?src=S&dst=D, GET /v1/vertex?v=V, POST /v1/edges
// (batch), GET /v1/stats, GET /healthz.
//
// On SIGTERM or SIGINT the service stops accepting connections, lets the
// requests in flight finish (for at most shutdownGrace), writes the final
// -metrics-out snapshot and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	adwise "github.com/adwise-go/adwise"
)

// stopSignals are the signals on which the service shuts down cleanly.
var stopSignals = []os.Signal{os.Interrupt, syscall.SIGTERM}

// shutdownGrace bounds how long a stopping service waits for the requests
// in flight before it closes their connections and fails.
const shutdownGrace = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), stopSignals...)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adwise-serve:", err)
		os.Exit(1)
	}
}

// options are the parsed serving options.
type options struct {
	assignment string
	in         string
	algo       string
	k          int
	latency    time.Duration
	window     int
	z, spread  int
	seed       uint64
	addr       string
	metricsOut string
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("adwise-serve", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.assignment, "assignment", "", "precomputed assignment TSV (from adwise -out)")
	fs.StringVar(&o.in, "in", "", "graph file to partition before serving (alternative to -assignment)")
	fs.StringVar(&o.algo, "algo", "adwise", "partitioning strategy for -in: "+strings.Join(adwise.StrategyNames(), ", "))
	fs.IntVar(&o.k, "k", 32, "partitions (with -in)")
	fs.DurationVar(&o.latency, "latency", 0, "ADWISE latency preference L (with -in)")
	fs.IntVar(&o.window, "window", 0, "ADWISE fixed window size (with -in)")
	fs.IntVar(&o.z, "z", 1, "parallel partitioner instances (with -in)")
	fs.IntVar(&o.spread, "spread", 0, "partitions per instance (default k/z, with -in)")
	fs.Uint64Var(&o.seed, "seed", 42, "hash/graph seed")
	fs.StringVar(&o.addr, "addr", ":8372", "listen address")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write telemetry snapshots to this file as JSON lines (sampled every second)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.assignment == "" && o.in == "":
		return o, fmt.Errorf("need -assignment or -in")
	case o.assignment != "" && o.in != "":
		return o, fmt.Errorf("-assignment and -in are mutually exclusive")
	case o.in != "" && o.k < 1:
		return o, fmt.Errorf("-k must be >= 1")
	case o.in != "" && o.z < 1:
		return o, fmt.Errorf("-z must be >= 1")
	}
	return o, nil
}

// buildStore produces the serving store for the parsed options: load the
// assignment TSV, or partition the input graph via the registry first.
func buildStore(o options) (*adwise.LookupStore, error) {
	a, err := loadAssignment(o)
	if err != nil {
		return nil, err
	}
	idx, err := adwise.BuildIndex(a)
	if err != nil {
		return nil, err
	}
	return adwise.NewLookupStore(idx), nil
}

func loadAssignment(o options) (*adwise.Assignment, error) {
	if o.assignment != "" {
		return adwise.LoadAssignment(o.assignment)
	}
	spread := o.spread
	if spread == 0 {
		spread = o.k / o.z
	}
	cfg := adwise.SpotlightConfig{K: o.k, Z: o.z, Spread: spread}
	spec := adwise.StrategySpec{K: o.k, Seed: o.seed, Latency: o.latency, Window: o.window}
	return adwise.PartitionFileSpotlight(o.algo, o.in, cfg, spec)
}

// newHandler wraps the instrumented lookup API (request counters, latency
// histograms, GET /v1/metrics) and, when the service was started from an
// assignment file, adds POST /v1/reload: re-read the file, rebuild the
// index, and swap it in atomically.
func newHandler(store *adwise.LookupStore, ins *adwise.ServeInstruments, o options) http.Handler {
	api := adwise.ServeHandlerInstrumented(store, ins)
	if o.assignment == "" {
		return api
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		a, err := adwise.LoadAssignment(o.assignment)
		if err == nil {
			var idx *adwise.LookupIndex
			if idx, err = adwise.BuildIndex(a); err == nil {
				store.Swap(idx)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
			return
		}
		fmt.Fprintf(w, "{\"status\":\"reloaded\",\"generation\":%d}\n", store.Generation())
	})
	return mux
}

// run serves until the listener fails or ctx is done. When ctx is done it
// shuts the server down, waiting for the requests in flight, and returns
// nil once they have finished; the deferred flush then writes the final
// -metrics-out snapshot.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	store, err := buildStore(o)
	if err != nil {
		return err
	}
	st := store.View().Stats()
	fmt.Fprintf(stdout, "index ready: k=%d edges=%d vertices=%d RF=%.3f shards=%d\n",
		st.K, st.DistinctEdges, st.Vertices, st.ReplicationDegree, st.Shards)

	// The service is always instrumented (GET /v1/metrics, metrics in
	// /v1/stats); -metrics-out additionally samples the registry to a
	// JSON-lines file once per second.
	reg := adwise.NewMetricRegistry()
	ins := adwise.NewServeInstruments(reg)
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return fmt.Errorf("creating -metrics-out file: %w", err)
		}
		defer f.Close()
		flusher := adwise.NewMetricsFlusher(reg, adwise.NewJSONLinesSink(f), time.Second)
		flusher.Start()
		defer flusher.Stop()
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "serving partition lookups on http://%s\n", ln.Addr())
	srv := adwise.NewLookupServer(newHandler(store, ins, o))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// Nothing goes to stdout from here on: whoever sent the signal may
	// have closed it already.
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err = srv.Shutdown(sctx)
	if err != nil {
		srv.Close()
	}
	<-served // Serve returns as soon as the shutdown closes the listener
	if err != nil {
		return fmt.Errorf("shutting down with requests still in flight: %w", err)
	}
	return nil
}
