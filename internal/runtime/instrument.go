package runtime

import (
	"github.com/adwise-go/adwise/internal/metric"
)

// Metric names published by PublishStats for a completed pass. They carry
// the strategy-independent Stats view, so hashing baselines and window
// strategies report through the same names; score ops simply stay zero
// for strategies that do not score.
const (
	// MetricRunAssignments counts edges assigned across published passes.
	MetricRunAssignments = "runtime.assignments"
	// MetricRunScoreOps counts edge score evaluations.
	MetricRunScoreOps = "runtime.score_ops"
	// MetricRunLatency is the partitioning wall-clock per published pass,
	// as a histogram timer.
	MetricRunLatency = "runtime.partitioning.latency"
	// MetricRunVcacheEvicted counts vertex-state evictions under a vertex
	// budget; the byte gauges carry the final and peak tracked footprints
	// of the published pass (summed across instances when publishing an
	// AggregateStats fold).
	MetricRunVcacheEvicted   = "runtime.vcache.evicted"
	MetricRunVcacheBytes     = "runtime.vcache.bytes"
	MetricRunVcachePeakBytes = "runtime.vcache.peak_bytes"
)

// PublishStats pushes one pass's Stats onto reg — the bridge from the
// pull-style Stats structs every Strategy reports to the push-style
// registry the flusher samples. Callers publish either per instance or
// once with an AggregateStats fold; counters accumulate either way. A nil
// registry is a no-op.
func PublishStats(reg *metric.Registry, st Stats) {
	if reg == nil {
		return
	}
	reg.Counter(MetricRunAssignments).Inc(st.Assignments)
	reg.Counter(MetricRunScoreOps).Inc(st.ScoreComputations)
	reg.Counter(MetricRunVcacheEvicted).Inc(st.EvictedVertices)
	reg.Gauge(MetricRunVcacheBytes).Set(st.CacheBytes)
	reg.Gauge(MetricRunVcachePeakBytes).Set(st.PeakCacheBytes)
	reg.Timer(MetricRunLatency).Observe(st.PartitioningLatency)
}
