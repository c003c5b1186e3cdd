package bench

import (
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"time"

	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/stream"
)

// Ingest measures the full ingest matrix for feeding the Z spotlight
// instances from a graph file (§III-D, Figure 3): both on-disk formats —
// text edge list and fixed-record ADWB binary — each loaded both ways:
// materialise the edge list and chunk it (stream.Load + ChunkStreams)
// versus streaming disjoint byte ranges of the file (OpenFileStreams), both
// through the one spotlight executor. All four paths partition the same
// Web-like graph with the same strategy; the table reports wall time and
// bytes allocated. Binary segmented should win outright: fixed records skip
// text parsing, and its planning is header arithmetic — no counting pass
// over the file at all.
func Ingest(cfg Config) (*Table, error) {
	g, err := gen.PresetWeb.Generate(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: generating web graph: %w", err)
	}
	dir, err := os.MkdirTemp("", "adwise-ingest")
	if err != nil {
		return nil, fmt.Errorf("bench: temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	paths := map[string]string{
		"text":   filepath.Join(dir, "web.txt"),
		"binary": filepath.Join(dir, "web.bin"),
	}
	for _, p := range paths {
		if err := graph.SaveFile(p, g); err != nil {
			return nil, err
		}
	}
	edges := g.E()
	g = nil // the ingest paths must start from the files, not this copy

	scfg := cfg.spotlightConfig()
	spec := runtime.Spec{K: cfg.K, Seed: cfg.Seed}
	strategy := "hdrf"

	type result struct {
		label   string
		latency time.Duration
		allocMB float64
		rf      float64
	}
	clk := cfg.clock()
	measure := func(label string, run func() (*metrics.Assignment, error)) (result, error) {
		var before, after gort.MemStats
		gort.GC()
		gort.ReadMemStats(&before)
		start := clk.Now()
		a, err := run()
		lat := clk.Now().Sub(start)
		if err != nil {
			return result{}, fmt.Errorf("bench: ingest %s: %w", label, err)
		}
		gort.ReadMemStats(&after)
		if a.Len() != edges {
			return result{}, fmt.Errorf("bench: ingest %s assigned %d of %d edges", label, a.Len(), edges)
		}
		return result{
			label:   label,
			latency: lat,
			allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			rf:      metrics.Summarize(a).ReplicationDegree,
		}, nil
	}

	var results []result
	for _, format := range []string{"text", "binary"} {
		path := paths[format]
		materialised, err := measure(format+" materialised", func() (*metrics.Assignment, error) {
			loaded, err := stream.Load(path)
			if err != nil {
				return nil, err
			}
			streams, err := runtime.ChunkStreams(loaded.Edges, scfg.Z)
			if err != nil {
				return nil, err
			}
			a, _, err := runtime.RunSpotlightStreamsStats(streams, scfg, scfg.Instances(strategy, spec))
			return a, err
		})
		if err != nil {
			return nil, err
		}
		cfg.progressf("  ingest %s: %v, %.1f MB allocated", materialised.label, materialised.latency, materialised.allocMB)

		segmented, err := measure(format+" segmented", func() (*metrics.Assignment, error) {
			streams, closeAll, err := runtime.OpenFileStreams(path, scfg.Z, nil)
			if err != nil {
				return nil, err
			}
			defer closeAll()
			a, _, err := runtime.RunSpotlightStreamsStats(streams, scfg, scfg.Instances(strategy, spec))
			return a, err
		})
		if err != nil {
			return nil, err
		}
		cfg.progressf("  ingest %s: %v, %.1f MB allocated", segmented.label, segmented.latency, segmented.allocMB)
		results = append(results, materialised, segmented)
	}

	tab := &Table{
		ID:      "Ingest",
		Title:   fmt.Sprintf("file ingest, %s, %d edges, z=%d loaders, {text,binary} x {materialised,segmented}", strategy, edges, scfg.Z),
		Columns: []string{"ingest", "latency", "alloc MB", "RF"},
		Notes: []string{
			"materialised = stream.Load + ChunkStreams; segmented = byte-range OpenFileStreams; both through RunSpotlightStreamsStats",
			"segmented loading never holds the full edge slice: its steady memory is the per-loader read buffers",
			"plus the vertex caches — constant in the edge count, so the win over materialising grows with the file",
			"binary segmented additionally plans by header arithmetic (no counting pass) and decodes fixed records",
			"zero-copy, so it is the fastest ingest configuration",
		},
	}
	for _, r := range results {
		tab.AddRow(r.label, r.latency, fmt.Sprintf("%.1f", r.allocMB), r.rf)
	}
	return tab, nil
}
