// Command adwise-bench regenerates the paper's evaluation: every table and
// figure (Table II, Figure 1, Figures 7a–7i, Figure 8) plus the design
// ablations, as aligned text tables.
//
// Usage:
//
//	adwise-bench -exp list
//	adwise-bench -exp fig7a -scale 0.2 -v
//	adwise-bench -exp all -scale 0.1 > results.txt
//	adwise-bench -exp ingest -json > BENCH_ingest.json
//	adwise-bench -exp memory -scale 0.02 -cpuprofile memory.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	adwise "github.com/adwise-go/adwise"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adwise-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("adwise-bench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "list", `experiment id, "all", or "list"`)
		scale   = fs.Float64("scale", 0.1, "graph scale factor (1.0 = default evaluation size)")
		seed    = fs.Uint64("seed", 42, "experiment seed")
		k       = fs.Int("k", 32, "partitions")
		z       = fs.Int("z", 8, "parallel partitioner instances")
		spread  = fs.Int("spread", 4, "spotlight spread (partitions per instance)")
		verbose = fs.Bool("v", false, "print progress lines to stderr")
		jsonOut = fs.Bool("json", false, "emit results as JSON instead of aligned text tables")
		profile = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		budget  = fs.String("vcache-budget", "", "pin the memory experiment to one vertex-state byte budget, e.g. 64MiB (empty = sweep {inf, 1/2, 1/4, 1/8} of the unbounded peak)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return fmt.Errorf("creating cpu profile %s: %w", *profile, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := adwise.DefaultExperimentConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.K = *k
	cfg.Z = *z
	cfg.Spread = *spread
	if b, err := adwise.ParseByteSize(*budget); err != nil {
		return fmt.Errorf("invalid -vcache-budget: %w", err)
	} else {
		cfg.VertexBudgetBytes = b
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}

	switch *exp {
	case "list":
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range adwise.Experiments() {
			fmt.Fprintf(stdout, "  %-20s %s\n", e.ID, e.Paper)
		}
		return nil
	case "all":
		if *jsonOut {
			return adwise.RunAllExperimentsJSON(cfg, stdout)
		}
		return adwise.RunAllExperiments(cfg, stdout)
	default:
		e, err := adwise.LookupExperiment(*exp)
		if err != nil {
			return err
		}
		t, err := e.Run(cfg)
		if err != nil {
			return err
		}
		if *jsonOut {
			return t.WriteJSON(stdout)
		}
		return t.Fprint(stdout)
	}
}
