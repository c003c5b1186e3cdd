// Package adwise is a from-scratch Go implementation of ADWISE — the
// adaptive window-based streaming edge partitioner of Mayer et al.
// (ICDCS 2018) — together with the single-edge streaming baselines it is
// evaluated against (Hash, 1D/2D, Grid, Greedy, DBH, HDRF), the spotlight
// optimization for parallel loading, synthetic generators for the paper's
// evaluation graphs, a vertex-cut graph-processing engine with a simulated
// cluster cost model, and a benchmark harness that regenerates every table
// and figure of the paper's evaluation.
//
// # Quick start
//
//	g, _ := adwise.Generate(adwise.GraphBrain, 0.1, 42)
//	p, _ := adwise.NewADWISE(32, adwise.WithLatencyPreference(time.Second))
//	assignment, _ := p.Run(adwise.StreamGraph(g))
//	fmt.Println(adwise.Summarize(assignment))
//
// The partitioner assigns every edge of the stream to one of k partitions
// (a vertex-cut): vertices incident to edges on multiple partitions are
// replicated, and the replication degree (mean replicas per vertex) is the
// quality objective. ADWISE buffers a window of edges and repeatedly
// assigns the best-scoring one, adapting the window size at run time so
// the pass completes within a configurable latency preference L.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured reproduction record.
package adwise

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metric"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/partition"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/serve"
	"github.com/adwise-go/adwise/internal/stream"
	"github.com/adwise-go/adwise/internal/vcache"
)

// Core graph types, re-exported from the internal graph substrate.
type (
	// Edge is a single graph edge.
	Edge = graph.Edge
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Graph is an edge-list graph.
	Graph = graph.Graph
	// Assignment maps every streamed edge to its partition.
	Assignment = metrics.Assignment
	// Summary reports partitioning quality (replication degree, balance).
	Summary = metrics.Summary
	// Stream is a single-pass edge stream.
	Stream = stream.Stream
	// FileStream is a file-backed edge stream: batched streaming plus the
	// stream error contract plus Close. Returned by StreamFile for text
	// and binary graph files alike.
	FileStream = stream.FileStream
)

// ADWISE configuration options, re-exported from the core implementation.
type (
	// Option configures an ADWISE partitioner.
	Option = core.Option
	// RunStats reports what one ADWISE pass did (window trajectory, score
	// computations, latency).
	RunStats = core.RunStats
	// Partitioner is the ADWISE streaming partitioner. Instances are
	// single-use: one Run per instance.
	Partitioner = core.Adwise
)

// Re-exported ADWISE options. See the core package for semantics.
var (
	// WithLatencyPreference sets the partitioning latency preference L.
	WithLatencyPreference = core.WithLatencyPreference
	// WithClusteringScore toggles the clustering score (Eq. 6).
	WithClusteringScore = core.WithClusteringScore
	// WithAllowedPartitions restricts assignments to a partition subset
	// (the spotlight spread).
	WithAllowedPartitions = core.WithAllowedPartitions
	// WithInitialWindow sets the starting window size.
	WithInitialWindow = core.WithInitialWindow
	// WithMaxWindow caps the adaptive window.
	WithMaxWindow = core.WithMaxWindow
	// WithFixedWindow disables window adaptation.
	WithFixedWindow = core.WithFixedWindow
	// WithFixedLambda pins the balancing weight (ablation).
	WithFixedLambda = core.WithFixedLambda
	// WithEagerTraversal disables lazy traversal (ablation).
	WithEagerTraversal = core.WithEagerTraversal
	// WithClock substitutes the latency time source (tests).
	WithClock = core.WithClock
	// WithTotalEdgesHint supplies the stream length when unknown.
	WithTotalEdgesHint = core.WithTotalEdgesHint
	// WithEpsilon sets the candidate threshold offset ε.
	WithEpsilon = core.WithEpsilon
	// WithMaxCandidates bounds the lazy-traversal candidate set.
	WithMaxCandidates = core.WithMaxCandidates
	// WithScoreWorkers splits window scoring into n logical shards,
	// executed on the process-wide work-stealing pool (0 = auto:
	// GOMAXPROCS). Any shard count produces edge-for-edge identical
	// assignments.
	WithScoreWorkers = core.WithScoreWorkers
	// WithVertexBudget caps the byte footprint of the vertex state; when
	// the table would outgrow the budget, low-partial-degree vertices are
	// evicted HEP-style instead (0 = unbounded, the default).
	WithVertexBudget = core.WithVertexBudget
)

// ParseByteSize parses a human-readable byte size ("64MiB", "1.5g",
// "4096") into bytes: the format of the CLI vertex-budget flags. Suffixes
// are case-insensitive and binary (K = 1024); the empty string parses as
// 0 (no budget). Negative, non-finite and int64-overflowing sizes are
// errors.
func ParseByteSize(s string) (int64, error) { return vcache.ParseBytes(s) }

// FormatByteSize renders a byte count human-readably with binary units
// ("16.0MiB"), matching what ParseByteSize accepts.
func FormatByteSize(n int64) string { return vcache.FormatBytes(n) }

// NewADWISE returns an ADWISE partitioner for k partitions.
func NewADWISE(k int, opts ...Option) (*Partitioner, error) {
	return core.New(k, opts...)
}

// BaselineConfig configures a single-edge baseline partitioner.
type BaselineConfig = partition.Config

// Baseline identifies one of the single-edge streaming strategies from the
// paper's evaluation landscape.
type Baseline string

// The implemented single-edge baselines.
const (
	BaselineHash   Baseline = "hash"
	BaselineOneDim Baseline = "1d"
	BaselineTwoDim Baseline = "2d"
	BaselineGrid   Baseline = "grid"
	BaselineGreedy Baseline = "greedy"
	BaselineDBH    Baseline = "dbh"
	BaselineHDRF   Baseline = "hdrf"
)

// Baselines lists the single-edge strategies in Figure 1 order.
func Baselines() []Baseline {
	return []Baseline{BaselineHash, BaselineOneDim, BaselineTwoDim, BaselineGrid,
		BaselineGreedy, BaselineDBH, BaselineHDRF}
}

// NewBaseline constructs a named single-edge streaming partitioner through
// the strategy registry. HDRF uses the authors' recommended λ=1.1.
func NewBaseline(name Baseline, cfg BaselineConfig) (StreamingPartitioner, error) {
	return runtime.NewPartitioner(string(name), cfg)
}

// NewHDRF constructs an HDRF partitioner with an explicit balancing
// weight.
func NewHDRF(cfg BaselineConfig, lambda float64) (StreamingPartitioner, error) {
	return partition.NewHDRF(cfg, lambda)
}

// StreamingPartitioner is a single-edge streaming partitioner: one
// partition decision per arriving edge.
type StreamingPartitioner = partition.Partitioner

// RunBaseline drains s through a single-edge partitioner. A stream that
// fails mid-pass (see StreamErr) returns the error, never a silently-short
// assignment.
func RunBaseline(s Stream, p StreamingPartitioner) (*Assignment, error) {
	return partition.Run(s, p)
}

// PartitionNE runs the all-edge neighbourhood-expansion heuristic (the
// super-linear, high-quality reference point of Figure 1).
func PartitionNE(g *Graph, k int, seed uint64) (*Assignment, error) {
	return partition.NE{}.Partition(g, k, seed)
}

// Summarize computes the quality summary of an assignment: replication
// degree (Eq. 1 of the paper), balance (Eq. 2), cut vertices, sizes.
func Summarize(a *Assignment) Summary {
	return metrics.Summarize(a)
}

// SaveAssignment writes a partitioning as "src dst partition" TSV rows —
// the interchange format between the partitioning and processing tools.
// The rows go to a temporary file in the target's directory, which is
// renamed over the target only once it is complete, so a failed save
// leaves any previous file at path untouched and a reader never sees a
// partial one. An existing target is replaced where it lives: a symlink
// is followed to the file it names, and that file's permission bits are
// kept, as truncating it in place would. Its owner and any other hard
// links are not: the rename puts a new file, owned by the caller, in its
// place. The save does not fsync: it guards against partial files, not
// against a crash of the machine.
func SaveAssignment(path string, a *Assignment) (err error) {
	target, perm, exists := saveTarget(path)
	f, tmp, err := createSibling(target)
	if err != nil {
		return fmt.Errorf("adwise: creating %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			// Best effort: the save already failed, and a second close
			// after the checked one below is harmless.
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()
	if exists {
		if err := f.Chmod(perm); err != nil {
			return fmt.Errorf("adwise: setting the mode of %s: %w", tmp, err)
		}
	}
	if err := a.WriteTSV(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("adwise: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, target); err != nil {
		return fmt.Errorf("adwise: replacing %s: %w", path, err)
	}
	return nil
}

// saveTarget resolves the file a save to path replaces: path with its
// symlinks evaluated, and, when that is an existing regular file, its
// permission bits. When path does not resolve (nothing exists there yet,
// or it is a dangling symlink) it returns path itself.
func saveTarget(path string) (target string, perm fs.FileMode, exists bool) {
	target, err := filepath.EvalSymlinks(path)
	if err != nil {
		return path, 0, false
	}
	fi, err := os.Stat(target)
	if err != nil || !fi.Mode().IsRegular() {
		return target, 0, false
	}
	return target, fi.Mode().Perm(), true
}

// createSibling creates a new, uniquely named file in path's directory
// with mode 0666 before the umask, the mode os.Create gives a new file.
func createSibling(path string) (*os.File, string, error) {
	dir, base := filepath.Split(path)
	var err error
	for i := 0; i < 1000; i++ {
		tmp := filepath.Join(dir, fmt.Sprintf(".%s.tmp-%d-%d", base, os.Getpid(), i))
		var f *os.File
		f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, tmp, err
		}
	}
	return nil, "", err
}

// LoadAssignment reads a partitioning written by SaveAssignment.
func LoadAssignment(path string) (*Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("adwise: opening %s: %w", path, err)
	}
	defer f.Close()
	return metrics.ReadTSV(f)
}

// ReplicaHistogram returns, for h in 0..k, how many vertices have h
// replicas.
func ReplicaHistogram(a *Assignment) []int {
	return metrics.ReplicaHistogram(a)
}

// StreamGraph streams a graph's edges in their stored order.
func StreamGraph(g *Graph) Stream { return stream.FromGraph(g) }

// StreamEdges streams an edge slice in order.
func StreamEdges(edges []Edge) Stream { return stream.FromEdges(edges) }

// StreamFile streams a graph file without materialising it, sniffing the
// format: ADWB binary files stream fixed records, everything else streams
// as a text edge list. The returned stream must be closed by the caller.
func StreamFile(path string) (FileStream, error) { return stream.Open(path) }

// StreamErr returns the pending error of a stream that can fail mid-pass
// (file and segment streams), or nil for streams that cannot fail or have
// not failed. Stream exhaustion with a pending error is a failure, never a
// short success; every run path in this package checks it, so callers only
// need StreamErr when driving a stream by hand.
func StreamErr(s Stream) error { return stream.Err(s) }

// IsBinaryGraphFile reports whether path is a binary (ADWB) edge-list
// file. Purely informational since the ingest layer became
// format-agnostic: loading (LoadGraph), streaming (StreamFile), and
// segment partitioning (PartitionFileSpotlight) all sniff the format and
// handle both encodings.
func IsBinaryGraphFile(path string) (bool, error) { return graph.IsBinary(path) }

// Shuffle returns a seeded pseudo-random permutation of edges.
func Shuffle(edges []Edge, seed uint64) []Edge { return stream.Shuffled(edges, seed) }

// Interleave dilutes stream locality by round-robin interleaving
// contiguous blocks.
func Interleave(edges []Edge, blocks int) []Edge { return stream.Interleave(edges, blocks) }

// Unified strategy runtime, re-exported from internal/runtime: every
// partitioner — baselines and ADWISE alike — is constructible by name
// through one registry and runs behind one interface.
type (
	// Strategy is a named, stats-reporting partitioner instance: one Run
	// over an edge stream produces an assignment.
	Strategy = runtime.Strategy
	// StrategySpec carries the construction knobs shared by all
	// strategies (K, allowed spread, seed, ADWISE latency/window, ...).
	StrategySpec = runtime.Spec
	// StrategyStats is the strategy-independent account of one pass.
	StrategyStats = runtime.Stats
)

// NewStrategy constructs the named strategy ("hash", "1d", "2d", "grid",
// "greedy", "dbh", "hdrf", "adwise", "ne") from the registry.
func NewStrategy(name string, spec StrategySpec) (Strategy, error) {
	return runtime.New(name, spec)
}

// StrategyNames lists every registered strategy, sorted.
func StrategyNames() []string { return runtime.Names() }

// Spotlight configuration and runner, re-exported from the strategy
// runtime.
type (
	// SpotlightConfig configures parallel loading with restricted spread.
	SpotlightConfig = runtime.SpotlightConfig
	// Runner is one partitioner instance under spotlight.
	Runner = runtime.Runner
)

// RunSpotlight partitions Z edge streams with Z parallel instances of
// restricted spread (§III-D of the paper) and merges their assignments in
// instance order. ChunkStreams and OpenFileStreams supply the streams;
// build receives the instance index and its allowed partitions, and
// cfg.Instances(name, spec) builds registry strategies. stats[i] is
// instance i's StrategyStats; AggregateStrategyStats folds them into a
// run-level view.
func RunSpotlight(streams []Stream, cfg SpotlightConfig, build func(i int, allowed []int) (Runner, error)) (*Assignment, []StrategyStats, error) {
	return runtime.RunSpotlightStreamsStats(streams, cfg, build)
}

// ChunkStreams splits edges into z near-equal contiguous chunk streams,
// one per spotlight instance. Fewer edges than z is an error.
func ChunkStreams(edges []Edge, z int) ([]Stream, error) { return runtime.ChunkStreams(edges, z) }

// OpenFileStreams plans a graph file — text edge list or ADWB binary,
// sniffed automatically — into z disjoint byte ranges and opens one
// segment stream per range (the paper's Figure 3 deployment), metered
// onto reg when it is non-nil. Binary files are planned by record
// arithmetic on the header with no pass over the data. The returned func
// closes the segments; on error nothing is left open.
func OpenFileStreams(path string, z int, reg *MetricRegistry) ([]Stream, func(), error) {
	return runtime.OpenFileStreams(path, z, reg)
}

// AggregateStrategyStats folds per-instance spotlight stats into one
// run-level view: counters summed, latency and window peaks maxed.
func AggregateStrategyStats(stats []StrategyStats) StrategyStats {
	return runtime.AggregateStats(stats)
}

// PublishStrategyStats pushes one pass's StrategyStats onto a telemetry
// registry under the runtime.* metric names. A nil registry is a no-op.
func PublishStrategyStats(reg *MetricRegistry, st StrategyStats) {
	runtime.PublishStats(reg, st)
}

// PartitionFileSpotlight partitions a graph file with Z registry-built
// instances of the named strategy, each streaming a disjoint byte range of
// the file: OpenFileStreams (metered onto spec.Metrics), cfg.Instances and
// RunSpotlight. cfg is validated before the file is opened, and with a
// non-nil spec.Metrics the run's AggregateStrategyStats are published
// there. With streaming strategies the edge list is never materialised,
// so the file may be far larger than memory; the all-edge "ne" strategy
// still collects each instance's segment.
func PartitionFileSpotlight(name, path string, cfg SpotlightConfig, spec StrategySpec) (*Assignment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	streams, closeAll, err := OpenFileStreams(path, cfg.Z, spec.Metrics)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	a, stats, err := RunSpotlight(streams, cfg, cfg.Instances(name, spec))
	if err != nil {
		return nil, err
	}
	PublishStrategyStats(spec.Metrics, AggregateStrategyStats(stats))
	return a, nil
}

// AsRunner adapts a single-edge partitioner to a spotlight Runner.
func AsRunner(p StreamingPartitioner) Runner { return runtime.FromPartitioner(p) }

// Partition-lookup serving layer, re-exported from internal/serve: the
// consumption side of the partitioner. A LookupIndex is an immutable,
// sharded edge→partition / vertex→replica-set index built from an
// Assignment; a LookupStore hot-swaps indices under unbounded concurrent
// readers; ServeHandler/Serve expose the HTTP JSON API that distributed
// graph-processing workers (paper §II, Figure 3) query at runtime.
type (
	// LookupIndex answers Partition(src,dst), PartitionBatch, and
	// Replicas(v) with zero allocations; safe for concurrent readers.
	LookupIndex = serve.Index
	// LookupStore holds the live index behind an atomic pointer; Swap
	// installs a fresh index without blocking in-flight lookups.
	LookupStore = serve.Store
	// LookupStats reports what a LookupIndex holds.
	LookupStats = serve.Stats
)

// BuildIndex constructs an immutable lookup index from an assignment.
func BuildIndex(a *Assignment) (*LookupIndex, error) { return serve.Build(a) }

// NewLookupStore returns a hot-swappable store serving idx (nil for an
// empty store that answers 503 until the first Swap).
func NewLookupStore(idx *LookupIndex) *LookupStore { return serve.NewStore(idx) }

// ServeHandler returns the lookup service's HTTP API over a store:
// /v1/edge, /v1/vertex, /v1/edges (batch), /v1/stats, /healthz. A batch
// body must be exactly {"edges":[[src,dst],...]}: one case-sensitive
// "edges" key, 1 to 65,536 pairs of two unsigned 32-bit integers in
// canonical form, whitespace only between tokens and after the object,
// at most 4 MiB. Anything else is answered 400.
func ServeHandler(s *LookupStore) http.Handler { return serve.NewHandler(s) }

// NewLookupServer wraps a handler (typically ServeHandler, possibly
// composed with extra routes) in an http.Server configured with the
// slow-client timeouts a public-facing lookup service needs.
func NewLookupServer(h http.Handler) *http.Server { return serve.NewServer(h) }

// Serve blocks serving the lookup API for s on addr, with the
// slow-client timeouts a public-facing lookup service needs.
func Serve(addr string, s *LookupStore) error {
	srv := serve.NewServer(ServeHandler(s))
	srv.Addr = addr
	return srv.ListenAndServe()
}

// Telemetry. A MetricRegistry collects lock-free counters, gauges, and
// latency histograms from the partitioning and serving layers; a
// MetricsFlusher samples it on a cadence and pushes cumulative snapshots
// to a sink (JSON lines, statsd line protocol, or any custom Sink). The
// hot-path instruments are zero-alloc and a slow or failing sink can never
// block them — overflow is dropped and self-reported on the registry.
type (
	// MetricRegistry is the registry instruments live on.
	MetricRegistry = metric.Registry
	// MetricSnapshot is one cumulative point-in-time view of a registry.
	MetricSnapshot = metric.Snapshot
	// MetricsFlusher samples a registry on a cadence into a sink.
	MetricsFlusher = metric.Flusher
	// MetricSink consumes flushed snapshots.
	MetricSink = metric.Sink
	// ServeInstruments bundles the lookup service's telemetry handles.
	ServeInstruments = serve.Instruments
)

// NewMetricRegistry returns a telemetry registry on the real clock.
func NewMetricRegistry() *MetricRegistry { return metric.New() }

// NewMetricsFlusher returns an unstarted flusher sampling reg into sink
// every interval. Start launches it; Stop performs one final flush.
func NewMetricsFlusher(reg *MetricRegistry, sink MetricSink, interval time.Duration) *MetricsFlusher {
	return metric.NewFlusher(reg, sink, interval)
}

// NewJSONLinesSink writes one JSON snapshot object per flush line to w.
func NewJSONLinesSink(w io.Writer) MetricSink { return metric.NewJSONLines(w) }

// NewStatsdSink emits statsd line protocol to w, prefixing every metric
// name (empty prefix allowed). Counters become deltas, timers become
// quantile |ms lines.
func NewStatsdSink(w io.Writer, prefix string) MetricSink { return metric.NewStatsd(w, prefix) }

// NewServeInstruments registers the lookup service's request counters,
// latency histograms, and store gauge on reg.
func NewServeInstruments(reg *MetricRegistry) *ServeInstruments { return serve.NewInstruments(reg) }

// ServeHandlerInstrumented is ServeHandler plus telemetry: per-endpoint
// counters and latency histograms on ins, a GET /v1/metrics snapshot
// endpoint, and a metrics section in /v1/stats.
func ServeHandlerInstrumented(s *LookupStore, ins *ServeInstruments) http.Handler {
	return serve.NewInstrumentedHandler(s, ins)
}
