// Command prog is the benchmark's own program: it prepares seeded inputs,
// runs one partitioner pass as a fresh process, checks a written
// assignment, and drives lookup load against a serving process. perfbench/
// run.py builds it and runs each step as a separate process.
//
//	prog gen    -workload W -seed N -root DIR      prepare inputs, print their meta
//	prog part   -meta M -graph I -out FILE [-spans FILE] [-score-workers N]  one partitioner pass
//	prog check  -meta M -graph I -assignment FILE [-sim]  verify an assignment, simulate processing
//	prog load   -meta M -addr HOST:PORT            lookup load against a server
//	prog tserve -meta M [-spans FILE]              in-process serving leg, traced with -spans
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: prog gen|part|check|load|tserve [flags]")
		os.Exit(2)
	}
	out, err := run(os.Args[1], os.Args[2:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "prog:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prog:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(cmd string, args []string) (any, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name (gen)")
		seed     = fs.Uint64("seed", 1, "workload seed (gen)")
		root     = fs.String("root", "", "input cache directory (gen)")
		metaPath = fs.String("meta", "", "meta.json of prepared inputs")
		outPath  = fs.String("out", "", "assignment TSV to write (part)")
		asgPath  = fs.String("assignment", "", "assignment TSV to check (check)")
		sim      = fs.Bool("sim", false, "also simulate the processing job (check)")
		spans    = fs.String("spans", "", "trace: record spans and write them here")
		addr     = fs.String("addr", "", "server address (load)")
		workers  = fs.Int("score-workers", -1, "override the workload's scoring shard count, 0 = auto (part)")
		index    = fs.Int("graph", 0, "which of the workload's graphs to partition or check")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cmd == "gen" {
		w, err := lookupWorkload(*workload)
		if err != nil {
			return nil, err
		}
		return prepare(w, *seed, *root)
	}
	m, err := readMeta(*metaPath)
	if err != nil {
		return nil, err
	}
	if *index < 0 || *index >= len(m.Graphs) {
		return nil, fmt.Errorf("-graph %d: the workload has %d graphs", *index, len(m.Graphs))
	}
	m.Index, m.Graph = *index, m.Graphs[*index]
	if *workers >= 0 {
		m.Workers = *workers
	}
	var rec *Recorder
	if *spans != "" {
		rec = NewRecorder()
	}
	w, err := lookupWorkload(m.Workload)
	if err != nil {
		return nil, err
	}
	loadCfg := func() (loadConfig, error) {
		qs, err := readQueries(m.Queries)
		return loadConfig{Addr: *addr, Queries: qs, Batch: 256, Batches: w.Batches, Reloads: w.Reloads, Rate: openLoopRate, Count: openLoopCount, Conns: 2}, err
	}
	switch cmd {
	case "part":
		res, err := partition(m, workloadSpec(m), *outPath, rec)
		if err == nil && rec != nil {
			gcLayers(res.Layers)
			err = rec.WriteFile(*spans)
		}
		return res, err
	case "check":
		return check(m, w, *asgPath, *sim)
	case "load":
		cfg, err := loadCfg()
		if err != nil {
			return nil, err
		}
		return runLoad(cfg)
	case "tserve":
		cfg, err := loadCfg()
		if err != nil {
			return nil, err
		}
		res, layers, err := serveInProcess(m, cfg, rec)
		if err != nil || rec == nil {
			return struct {
				Load loadResult `json:"load"`
			}{res}, err
		}
		gcLayers(layers)
		return struct {
			Load   loadResult         `json:"load"`
			Layers map[string]float64 `json:"layers"`
		}{res, layers}, rec.WriteFile(*spans)
	}
	return nil, fmt.Errorf("unknown command %q", cmd)
}

func readMeta(path string) (Meta, error) {
	var m Meta
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// gcLayers adds this process's garbage-collector totals.
func gcLayers(l map[string]float64) {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	l["go.gc_cycles"] = float64(ms.NumGC)
	l["go.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
}
