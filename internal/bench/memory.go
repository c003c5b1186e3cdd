package bench

import (
	"fmt"
	"time"

	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/stream"
	"github.com/adwise-go/adwise/internal/vcache"
)

// memoryZipfExponent is the degree skew of the memory workload. Zipf
// endpoints with s=1.3 give a long tail of low-degree vertices — exactly
// the population the HEP-style eviction sheds first — while a few hubs
// stay hot enough to survive every sweep.
const memoryZipfExponent = 1.3

// Memory measures the bounded vertex state: replication factor, peak
// tracked cache bytes, evictions, and throughput as the byte budget
// shrinks.
//
// The workload is a Zipf-skewed edge stream (~2M·scale edges) partitioned
// by one ADWISE instance at a fixed 1024-edge window. The first run is
// unbounded and establishes the reference replication factor and the peak
// footprint P of the exact byte-accounting model (resident table arrays
// only — see vcache). The sweep then re-runs the identical stream at
// budgets {P/2, P/4, P/8} (or at the single budget pinned by
// Config.VertexBudgetBytes). Per row the table reports the budget, the
// observed peak, evicted vertices, the replication factor measured from
// the full assignment (metrics.Summarize — the cache's own view
// undercounts once evicted vertices re-enter as degree-1), its ratio to
// the unbounded reference, wall-clock latency, and edge throughput.
//
// Two properties are enforced, not just reported: every bounded run's
// peak must stay within its effective budget (the budget floored at the
// minimum table, plus nothing — the accounting is exact), and shrinking
// budgets must actually evict. A bounded run that never evicts is a sweep
// bug, not a result.
func Memory(cfg Config) (*Table, error) {
	edges := int(2_000_000 * cfg.Scale)
	if edges < 20_000 {
		edges = 20_000
	}
	vertices := edges / 4
	g, err := gen.Zipf(vertices, edges, memoryZipfExponent, cfg.Seed+7)
	if err != nil {
		return nil, fmt.Errorf("bench: generating zipf graph: %w", err)
	}

	tab := &Table{
		ID: "Memory",
		Title: fmt.Sprintf("bounded vertex state under HEP-style eviction, adwise, k=%d, zipf s=%.1f, %d edges",
			cfg.K, memoryZipfExponent, len(g.Edges)),
		Columns: []string{"budget", "peak", "evicted", "rf", "rf ratio", "latency", "edges/s"},
		Notes: []string{
			"rf is measured from the full assignment (metrics.Summarize), never from the cache — eviction",
			"re-admits returning vertices as degree-1 with empty replica sets, so the cache's own view undercounts;",
			"peak is the exact byte-accounting model's high-water mark (resident table arrays only) and is",
			"asserted <= the effective budget on every bounded row; budget 0 rows are the unbounded reference",
		},
	}

	clk := cfg.clock()
	run := func(budget int64) (*metrics.Assignment, core.RunStats, time.Duration, error) {
		opts := []core.Option{
			core.WithInitialWindow(1 << 10),
			core.WithFixedWindow(),
			core.WithMaxCandidates(1 << 10),
		}
		if budget > 0 {
			opts = append(opts, core.WithVertexBudget(budget))
		}
		ad, err := core.New(cfg.K, opts...)
		if err != nil {
			return nil, core.RunStats{}, 0, err
		}
		start := clk.Now()
		a, err := ad.Run(stream.FromEdges(g.Edges))
		if err != nil {
			return nil, core.RunStats{}, 0, err
		}
		return a, ad.Stats(), clk.Now().Sub(start), nil
	}

	addRow := func(label string, st core.RunStats, rf, refRF float64, lat time.Duration) {
		eps := float64(len(g.Edges)) / lat.Seconds()
		tab.AddRow(label, vcache.FormatBytes(st.PeakCacheBytes), st.EvictedVertices,
			fmt.Sprintf("%.4f", rf), fmt.Sprintf("%.3fx", rf/refRF), lat, fmt.Sprintf("%.0f", eps))
	}

	refA, refStats, refLat, err := run(0)
	if err != nil {
		return nil, fmt.Errorf("bench: memory unbounded reference: %w", err)
	}
	refRF := metrics.Summarize(refA).ReplicationDegree
	cfg.progressf("  memory unbounded: rf=%.4f peak=%s in %v",
		refRF, vcache.FormatBytes(refStats.PeakCacheBytes), refLat)
	addRow("unbounded", refStats, refRF, refRF, refLat)

	budgets := []int64{refStats.PeakCacheBytes / 2, refStats.PeakCacheBytes / 4, refStats.PeakCacheBytes / 8}
	if cfg.VertexBudgetBytes > 0 {
		budgets = []int64{cfg.VertexBudgetBytes}
	}
	for _, budget := range budgets {
		a, st, lat, err := run(budget)
		if err != nil {
			return nil, fmt.Errorf("bench: memory budget=%d: %w", budget, err)
		}
		rf := metrics.Summarize(a).ReplicationDegree
		// The budget may floor at the minimum table; the cache's own
		// effective budget is authoritative for the envelope check.
		effective := vcache.New(cfg.K, budget).Budget()
		if st.PeakCacheBytes > effective {
			return nil, fmt.Errorf("bench: memory budget=%s: peak %s exceeds effective budget %s",
				vcache.FormatBytes(budget), vcache.FormatBytes(st.PeakCacheBytes), vcache.FormatBytes(effective))
		}
		if a.Len() != refA.Len() {
			return nil, fmt.Errorf("bench: memory budget=%s assigned %d edges, unbounded assigned %d",
				vcache.FormatBytes(budget), a.Len(), refA.Len())
		}
		// An effective budget below the unbounded peak cannot fit the
		// unbounded table, so the run must have shed vertices.
		if effective < refStats.PeakCacheBytes && st.EvictedVertices == 0 {
			return nil, fmt.Errorf("bench: memory budget=%s (effective %s < unbounded peak %s) evicted nothing",
				vcache.FormatBytes(budget), vcache.FormatBytes(effective), vcache.FormatBytes(refStats.PeakCacheBytes))
		}
		cfg.progressf("  memory budget=%s: rf=%.4f (%.3fx) peak=%s evicted=%d in %v",
			vcache.FormatBytes(budget), rf, rf/refRF, vcache.FormatBytes(st.PeakCacheBytes), st.EvictedVertices, lat)
		addRow(vcache.FormatBytes(budget), st, rf, refRF, lat)
	}
	return tab, nil
}
