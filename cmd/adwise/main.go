// Command adwise partitions a graph edge stream with ADWISE or one of the
// single-edge baselines, printing the partitioning quality and optionally
// writing the per-edge assignment.
//
// Usage:
//
//	adwise -in graph.txt -k 32 -algo adwise -latency 5s
//	adwise -in graph.txt -k 32 -algo hdrf -out assignment.tsv
//	adwise -in graph.txt -k 32 -z 8 -spread 4 -algo adwise -latency 5s
//	adwise -in graph.txt -k 32 -algo adwise -window 4096
//
// The input is partitioned by z parallel instances (one by default) under
// the spotlight optimization with the given spread, each streaming a
// disjoint byte range of the file (segmented loading) — for text edge
// lists and binary (.bin) inputs alike; binary ranges are planned from the
// header with no pass over the data. Streaming strategies never
// materialise the edge list, so the input may be larger than memory (the
// all-edge "ne" strategy still collects each instance's segment).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	adwise "github.com/adwise-go/adwise"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adwise:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adwise", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "input graph file (text edge list or .bin)")
		k          = fs.Int("k", 32, "number of partitions")
		algo       = fs.String("algo", "adwise", "strategy: "+strings.Join(adwise.StrategyNames(), ", "))
		latency    = fs.Duration("latency", 0, "ADWISE latency preference L (0 = single-edge behaviour)")
		window     = fs.Int("window", 0, "ADWISE fixed window size (overrides -latency adaptation)")
		budgetStr  = fs.String("vcache-budget", "", "vertex-state byte budget, e.g. 64MiB or 1.5g (empty = unbounded); when exceeded, low-degree vertices are evicted HEP-style; divided across the -z instances")
		z          = fs.Int("z", 1, "parallel partitioner instances")
		spread     = fs.Int("spread", 0, "partitions per instance (default k/z)")
		seed       = fs.Uint64("seed", 42, "hash/graph seed")
		out        = fs.String("out", "", "write per-edge assignment TSV (src dst partition)")
		metricsOut = fs.String("metrics-out", "", "write telemetry snapshots to this file as JSON lines (sampled every second, final flush at exit)")
		verbose    = fs.Bool("v", false, "print stats details")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -in graph file")
	}
	if *k < 1 {
		return fmt.Errorf("-k must be >= 1")
	}
	if *z < 1 {
		return fmt.Errorf("-z must be >= 1")
	}

	// With -metrics-out the run is instrumented: ingest progress ticks live
	// while the pass runs, sampled to the file once per second; Stop
	// guarantees a final cumulative snapshot with the run's stats.
	var reg *adwise.MetricRegistry
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return fmt.Errorf("creating -metrics-out file: %w", err)
		}
		defer f.Close()
		reg = adwise.NewMetricRegistry()
		flusher := adwise.NewMetricsFlusher(reg, adwise.NewJSONLinesSink(f), time.Second)
		flusher.Start()
		defer flusher.Stop()
	}

	budget, err := adwise.ParseByteSize(*budgetStr)
	if err != nil {
		return fmt.Errorf("invalid -vcache-budget: %w", err)
	}

	start := time.Now()
	a, err := partitionInput(*in, *algo, *k, *z, *spread, *seed, *latency, *window, budget, reg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	s := adwise.Summarize(a)
	fmt.Printf("strategy=%s k=%d latency=%v\n", *algo, *k, elapsed.Round(time.Millisecond))
	fmt.Printf("replication degree: %.4f\n", s.ReplicationDegree)
	fmt.Printf("imbalance (max-min)/max: %.4f\n", s.Imbalance)
	if *verbose {
		fmt.Printf("cut vertices: %d / %d\n", s.CutVertices, s.Vertices)
		fmt.Printf("partition sizes: min=%d max=%d normalized max load=%.3f\n",
			s.MinSize, s.MaxSize, s.NormalizedMaxLoad())
		hist := adwise.ReplicaHistogram(a)
		for h, c := range hist {
			if c > 0 {
				fmt.Printf("  %d replicas: %d vertices\n", h, c)
			}
		}
	}
	if *out != "" {
		if err := adwise.SaveAssignment(*out, a); err != nil {
			return err
		}
		fmt.Printf("assignment written to %s\n", *out)
	}
	return nil
}

// partitionInput runs z registry instances of algo over z disjoint byte
// ranges of the input (one range covering the whole file at z = 1) and
// publishes the run's aggregate stats onto reg.
func partitionInput(in, algo string, k, z, spread int, seed uint64, latency time.Duration, window int, budget int64, reg *adwise.MetricRegistry) (*adwise.Assignment, error) {
	spec := adwise.StrategySpec{K: k, Seed: seed, Latency: latency, Window: window, VertexBudgetBytes: budget, Metrics: reg}
	if spread == 0 {
		spread = k / z
	}
	fmt.Printf("streaming %s: z=%d segment loaders, spread=%d\n", in, z, spread)
	return adwise.PartitionFileSpotlight(algo, in, adwise.SpotlightConfig{K: k, Z: z, Spread: spread}, spec)
}
