package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	adwise "github.com/adwise-go/adwise"
	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/stream"
)

// partResult is what one partitioner process reports. The two instants are
// Unix wall-clock nanoseconds, so the parent process can subtract the
// instant it spawned this one.
type partResult struct {
	ReadyNs   int64              `json:"ready_unix_ns"`
	WrittenNs int64              `json:"written_unix_ns"`
	Edges     int64              `json:"edges"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// tracedRunner spans one spotlight instance's pass. It embeds the strategy
// so the executor still collects the instance's Stats.
type tracedRunner struct {
	runtime.Strategy
	rec    *Recorder
	name   string
	parent int64
}

func (t tracedRunner) Run(s stream.Stream) (*metrics.Assignment, error) {
	sp := t.rec.Begin(t.name, t.parent, 0)
	defer t.rec.End(sp)
	return t.Strategy.Run(s)
}

// runLayer names the layer a strategy's pass belongs to: ADWISE's window
// engine lives in core, the single-edge strategies in partition.
func runLayer(strategy string) string {
	if strategy == "adwise" {
		return "core.run"
	}
	return "partition.run"
}

// workloadSpec is the strategy spec cmd/adwise builds from the workload's
// flags (-k, -window, -score-workers, and its default -seed 42).
func workloadSpec(m Meta) runtime.Spec {
	return runtime.Spec{K: m.K, Seed: 42, Window: m.Window, ScoreWorkers: m.Workers}
}

// partition makes the calls cmd/adwise makes for the workload — open or
// plan the input, run the registry strategy, SaveAssignment — and stamps
// the call boundary between set-up and streaming. With a recorder it also
// spans each call and, after the timed interval, gathers the layer
// metrics of the pass.
func partition(m Meta, spec runtime.Spec, out string, rec *Recorder) (partResult, error) {
	var (
		res    partResult
		a      *metrics.Assignment
		stats  []runtime.Stats
		detail []core.RunStats
		plan   []stream.Range
	)
	if m.Z == 1 {
		sp := rec.Begin("stream.open", 0, 0)
		s, err := adwise.NewStrategy(m.Strategy, spec)
		if err != nil {
			return res, err
		}
		fs, err := adwise.StreamFile(m.Graph)
		if err != nil {
			return res, err
		}
		defer fs.Close()
		rec.End(sp)
		res.ReadyNs = time.Now().UnixNano()
		sp = rec.Begin(runLayer(m.Strategy), 0, 0)
		a, err = s.Run(fs)
		rec.End(sp)
		if err != nil {
			return res, err
		}
		stats = []runtime.Stats{s.Stats()}
		detail = coreDetail(s)
	} else {
		// The body of runtime.RunStrategySpotlightFile, split at the plan so
		// set-up ends where streaming begins. It leaves out the segment
		// metering, which that function adds only when spec.Metrics is set
		// (cmd/adwise -metrics-out). TestPartitionMatchesFacade holds the
		// two to the same assignment.
		sp := rec.Begin("stream.plan", 0, 0)
		ranges, err := stream.PlanFile(m.Graph, m.Z)
		if err != nil {
			return res, err
		}
		streams := make([]stream.Stream, len(ranges))
		for i, r := range ranges {
			seg, err := stream.OpenSegment(r)
			if err != nil {
				return res, err
			}
			defer seg.Close()
			streams[i] = seg
		}
		rec.End(sp)
		plan = ranges
		res.ReadyNs = time.Now().UnixNano()
		cfg := runtime.SpotlightConfig{K: m.K, Z: m.Z, Spread: m.Spread}
		sp = rec.Begin("runtime.spotlight", 0, 0)
		inner := make([]runtime.Strategy, m.Z)
		shares := splitScoreWorkers(spec.ScoreWorkers, m.Z)
		budgets := splitVertexBudget(spec.VertexBudgetBytes, m.Z)
		a, stats, err = runtime.RunSpotlightStreamsStats(streams, cfg, func(i int, allowed []int) (runtime.Runner, error) {
			s := spec
			s.Allowed = allowed
			s.Seed = spec.Seed + uint64(i)
			s.ScoreWorkers = shares[i]
			s.VertexBudgetBytes = budgets[i]
			if s.TotalEdgesHint == 0 {
				s.TotalEdgesHint = ranges[i].Edges
			}
			st, err := runtime.New(m.Strategy, s)
			inner[i] = st
			return tracedRunner{Strategy: st, rec: rec, name: runLayer(m.Strategy), parent: sp.ID}, err
		})
		rec.End(sp)
		if err != nil {
			return res, err
		}
		for _, st := range inner {
			detail = append(detail, coreDetail(st)...)
		}
	}
	sp := rec.Begin("metrics.write_tsv", 0, 0)
	err := adwise.SaveAssignment(out, a)
	rec.End(sp)
	if err != nil {
		return res, err
	}
	res.WrittenNs = time.Now().UnixNano()
	res.Edges = int64(a.Len())
	if rec != nil {
		res.Layers, err = partitionLayers(m, out, a, stats, detail, plan, rec)
	}
	return res, err
}

// splitScoreWorkers is runtime's split of an explicit scoring shard budget
// across z concurrent instances: the remainder goes to the first
// instances, each gets at least one, and 0 (auto) stays auto.
func splitScoreWorkers(total, z int) []int {
	shares := make([]int, z)
	if total == 0 {
		return shares
	}
	for i := range shares {
		shares[i] = max(1, total/z+min(1, max(0, total%z-i)))
	}
	return shares
}

// splitVertexBudget is runtime's split of a vertex-state byte budget across
// z instances, remainder first; 0 (unbounded) stays unbounded.
func splitVertexBudget(total int64, z int) []int64 {
	shares := make([]int64, z)
	if total <= 0 {
		return shares
	}
	n := int64(z)
	for i := range shares {
		shares[i] = max(1, total/n+min(1, max(0, total%n-int64(i))))
	}
	return shares
}

func coreDetail(s runtime.Strategy) []core.RunStats {
	if d, ok := s.(interface{ Detail() core.RunStats }); ok {
		return []core.RunStats{d.Detail()}
	}
	return nil
}

// partitionLayers turns the spans and strategy counters of one traced pass
// into the per-layer metrics; it runs after the timed interval.
func partitionLayers(m Meta, out string, a *metrics.Assignment, stats []runtime.Stats, detail []core.RunStats, plan []stream.Range, rec *Recorder) (map[string]float64, error) {
	sp := rec.Begin("metrics.summarize", 0, 0)
	_ = metrics.Summarize(a)
	rec.End(sp)
	drainBytes, err := drain(m, plan, rec)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return nil, err
	}

	spans := ByName(rec.Spans())
	sec := func(name string) float64 { return float64(spans[name].Wall) / 1e9 }
	l := map[string]float64{}
	edges := float64(a.Len())
	if m.Z > 1 {
		l["stream.plan_s"] = sec("stream.plan")
		run := spans[runLayer(m.Strategy)]
		// Self time: the executor's own work around its instances (building
		// them, merging their assignments); the instances are partition.run.
		l["runtime.spotlight_s"] = float64(spans["runtime.spotlight"].Self) / 1e9
		l["runtime.instance_s.max"] = float64(run.Max) / 1e9
		if run.Min > 0 {
			l["runtime.instance_skew"] = float64(run.Max) / float64(run.Min)
		}
	} else {
		l["stream.plan_s"] = sec("stream.open")
	}
	l["stream.bytes"] = float64(drainBytes)
	if d := spans["stream.drain"].Wall; d > 0 {
		l["stream.drain_mb_per_s"] = float64(drainBytes) / 1e6 / (float64(d) / 1e9)
	}
	agg := runtime.AggregateStats(stats)
	l["vcache.vertices"] = float64(agg.Vertices)
	l["vcache.peak_bytes"] = float64(agg.PeakCacheBytes)
	l["vcache.evicted"] = float64(agg.EvictedVertices)
	layer := runLayer(m.Strategy)
	// The executor runs instances concurrently, so a pass costs the sum of
	// its instances' busy time per edge.
	if layer == "partition.run" {
		l["partition.run_s"] = sec(layer)
		l["partition.ns_per_edge"] = float64(spans[layer].Wall) / edges
	} else {
		runNs := float64(spans[layer].Wall)
		l["core.run_s"] = runNs / 1e9
		l["core.ns_per_edge"] = runNs / edges
		var d core.RunStats
		for _, x := range detail {
			d.ScoreComputations += x.ScoreComputations
			d.Promotions += x.Promotions
			d.Demotions += x.Demotions
			d.Reassessments += x.Reassessments
			d.SecondaryRescans += x.SecondaryRescans
			d.RefillPasses += x.RefillPasses
			d.BatchedAdds += x.BatchedAdds
			d.PeakWindow = max(d.PeakWindow, x.PeakWindow)
		}
		l["core.score_ops"] = float64(d.ScoreComputations)
		l["core.score_ops_per_edge"] = float64(d.ScoreComputations) / edges
		if d.ScoreComputations > 0 {
			l["core.ns_per_score_op"] = runNs / float64(d.ScoreComputations)
		}
		l["core.promotions"] = float64(d.Promotions)
		l["core.demotions"] = float64(d.Demotions)
		l["core.reassessments"] = float64(d.Reassessments)
		l["core.secondary_rescans"] = float64(d.SecondaryRescans)
		l["core.refill_passes"] = float64(d.RefillPasses)
		l["core.batched_adds"] = float64(d.BatchedAdds)
		l["core.peak_window"] = float64(d.PeakWindow)
		l["scorepool.parallel_passes"] = float64(agg.ParallelScorePasses)
		l["scorepool.stolen_shards"] = float64(agg.StolenScoreShards)
		if agg.ScoreComputations > 0 {
			l["scorepool.pool_op_share"] = float64(agg.PoolScoreOps) / float64(agg.ScoreComputations)
		}
	}
	w := spans["metrics.write_tsv"].Wall
	l["metrics.write_tsv_s"] = float64(w) / 1e9
	if w > 0 {
		l["metrics.write_mb_per_s"] = float64(fi.Size()) / 1e6 / (float64(w) / 1e9)
	}
	l["metrics.summarize_s"] = sec("metrics.summarize")
	return l, nil
}

// drain reads the same input as the pass through the same readers, one
// goroutine per segment as the executor runs them, with no partitioner
// behind them: the ingest ceiling for edges/s. It returns the edge-data
// bytes read.
func drain(m Meta, plan []stream.Range, rec *Recorder) (int64, error) {
	if plan == nil {
		var err error
		if plan, err = stream.PlanFile(m.Graph, 1); err != nil {
			return 0, err
		}
	}
	sp := rec.Begin("stream.drain", 0, 0)
	defer rec.End(sp)
	edges := make([]int64, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for i, r := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edges[i], errs[i] = drainSegment(r)
		}()
	}
	wg.Wait()
	var bytes, total int64
	for i, r := range plan {
		if errs[i] != nil {
			return 0, errs[i]
		}
		bytes += r.End - r.Start
		total += edges[i]
	}
	if total != int64(m.Edges) {
		return 0, fmt.Errorf("drain read %d edges, want %d", total, m.Edges)
	}
	return bytes, nil
}

func drainSegment(r stream.Range) (int64, error) {
	seg, err := stream.OpenSegment(r)
	if err != nil {
		return 0, err
	}
	defer seg.Close()
	buf := make([]graph.Edge, 4096)
	var edges int64
	for n := seg.NextBatch(buf); n > 0; n = seg.NextBatch(buf) {
		edges += int64(n)
	}
	return edges, stream.Err(seg)
}
