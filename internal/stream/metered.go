package stream

import (
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/metric"
)

// Metric names published by the ingest layer when runs are instrumented
// (runtime.Spec.Metrics). Edges tick live per batch, so a flusher sampling
// the registry sees ingest progress — and edges/sec — while a pass runs.
const (
	// MetricEdgesRead counts edges drawn from instrumented streams.
	MetricEdgesRead = "stream.edges_read"
	// MetricSegmentsDone counts instrumented segment streams that reached
	// exhaustion.
	MetricSegmentsDone = "stream.segments_done"
	// MetricBytesPlanned totals the byte lengths of the planned segment
	// ranges of instrumented file runs.
	MetricBytesPlanned = "stream.bytes_planned"
)

// Metered wraps a Stream, mirroring the edges drawn from it onto a live
// telemetry counter and firing a hook exactly once at exhaustion. The
// counter ticks once per batch, so the cost is one atomic add per
// DefaultBatchSize edges, not per edge.
type Metered struct {
	inner Stream
	edges *metric.Counter
	done  func()
	fired bool
}

// NewMetered wraps s. edges may be nil (edge counting disabled); done may
// be nil (no exhaustion hook).
func NewMetered(s Stream, edges *metric.Counter, done func()) *Metered {
	return &Metered{inner: s, edges: edges, done: done}
}

// NextBatch implements Stream: one counter tick per batch.
func (m *Metered) NextBatch(dst []graph.Edge) int {
	n := m.inner.NextBatch(dst)
	if n > 0 {
		if m.edges != nil {
			m.edges.Inc(int64(n))
		}
	} else {
		m.exhausted()
	}
	return n
}

// Remaining implements Stream.
func (m *Metered) Remaining() int64 { return m.inner.Remaining() }

// Err implements Errer, forwarding the inner stream's error state.
func (m *Metered) Err() error { return Err(m.inner) }

func (m *Metered) exhausted() {
	if m.fired || m.done == nil {
		return
	}
	m.fired = true
	m.done()
}
