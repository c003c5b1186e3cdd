package core

import (
	"github.com/adwise-go/adwise/internal/metric"
)

// Metric names published by the partitioner core when a registry is
// attached via WithMetrics. All publish once at the end of Run.
const (
	// MetricAssignments counts edges assigned (end of Run).
	MetricAssignments = "core.assignments"
	// MetricScoreOps counts edge score evaluations (end of Run).
	MetricScoreOps = "core.score_ops"
	// MetricRunLatency is the partitioning wall-clock per Run, as a
	// histogram timer.
	MetricRunLatency = "core.run.latency"
	// MetricVcacheEvicted counts vertex-state evictions under a vertex
	// budget (end of Run; 0 on the unbounded default).
	MetricVcacheEvicted = "core.vcache.evicted"
	// MetricVcacheBytes is a gauge holding the final tracked byte
	// footprint of the vertex state (end of Run).
	MetricVcacheBytes = "core.vcache.bytes"
	// MetricVcachePeakBytes is a gauge holding the peak tracked byte
	// footprint of the vertex state (end of Run).
	MetricVcachePeakBytes = "core.vcache.peak_bytes"
)

// WithMetrics attaches a telemetry registry: the run totals (assignments,
// score ops, partitioning latency, vertex-state footprint) publish when
// Run returns. The default, no registry, publishes nothing; the scoring
// hot path never touches the registry either way.
func WithMetrics(reg *metric.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// publishRunMetrics pushes the completed run's totals onto the attached
// registry. Counters accumulate across runs sharing a registry (the
// spotlight case: z instances, one registry).
func (a *Adwise) publishRunMetrics() {
	reg := a.cfg.metrics
	if reg == nil {
		return
	}
	reg.Counter(MetricAssignments).Inc(a.stats.Assignments)
	reg.Counter(MetricScoreOps).Inc(a.stats.ScoreComputations)
	reg.Timer(MetricRunLatency).Observe(a.stats.PartitioningLatency)
	reg.Counter(MetricVcacheEvicted).Inc(a.stats.EvictedVertices)
	reg.Gauge(MetricVcacheBytes).Set(a.stats.CacheBytes)
	reg.Gauge(MetricVcachePeakBytes).Set(a.stats.PeakCacheBytes)
}
