// Package stream models the edge stream of the streaming-partitioning model
// (§II-B of the paper): a single ordered pass over the edges of a graph.
//
// Every stream reports its exact length, which ADWISE's adaptive window
// condition (C2) uses to estimate the remaining per-edge latency budget
// (the paper notes the graph size "is usually known or can be determined
// efficiently using line count on the graph file"): slices know theirs,
// text files count their data lines before streaming, binary files read
// it from the header, and segments take it from the plan.
package stream

import (
	"fmt"
	"math/rand/v2"

	"github.com/adwise-go/adwise/internal/graph"
)

// Stream is a single-pass sequence of edges of known length.
type Stream interface {
	// NextBatch fills dst from the front and returns the number of edges
	// written; zero means the stream is exhausted (dst must be
	// non-empty). Short non-zero reads are allowed.
	NextBatch(dst []graph.Edge) int
	// Remaining returns the exact number of edges left, never a negative
	// guess. A stream that has failed (see Errer) reports 0.
	Remaining() int64
}

// Errer is the error-reporting side of a fallible Stream. A stream that can
// fail mid-pass (a file that hits a malformed line, an I/O error, ...)
// exhausts early and records the cause here. Exhaustion with a pending Err
// is a failure, never a short success: every consumer that drains a stream
// to completion must check Err before treating the pass as done.
type Errer interface {
	// Err returns the first error encountered while streaming, or nil on
	// clean exhaustion so far.
	Err() error
}

// Err returns the pending stream error of s: the Errer error if s reports
// one, nil for streams that cannot fail (slices) or have not failed.
// Wrappers (Buffered, Metered) forward their inner stream's error state,
// so checking the outermost stream suffices.
func Err(s Stream) error {
	if e, ok := s.(Errer); ok {
		return e.Err()
	}
	return nil
}

// Len returns s.Remaining(), or an error if s breaks the Stream contract
// by reporting a negative length. Consumers size their output from it
// before the first edge is drawn.
func Len(s Stream) (int64, error) {
	n := s.Remaining()
	if n < 0 {
		return 0, fmt.Errorf("stream: Remaining() = %d breaks the Stream contract: a stream reports its exact, non-negative length", n)
	}
	return n, nil
}

// Collect drains s into a new edge slice sized to s.Remaining(), reading
// straight into the slice's free tail. Edges a stream delivers past its
// Remaining go through a small stack buffer and are appended. A stream
// that fails mid-pass returns the error, not a silently-short slice.
func Collect(s Stream) ([]graph.Edge, error) {
	m, err := Len(s)
	if err != nil {
		return nil, err
	}
	out := make([]graph.Edge, 0, m)
	var spill [512]graph.Edge
	for {
		dst, spilled := out[len(out):cap(out)], false
		if len(dst) == 0 {
			dst, spilled = spill[:], true
		}
		n := s.NextBatch(dst)
		if n == 0 {
			if err := Err(s); err != nil {
				return nil, fmt.Errorf("stream: collecting after %d edges: %w", len(out), err)
			}
			return out, nil
		}
		if spilled {
			out = append(out, spill[:n]...)
		} else {
			out = out[:len(out)+n]
		}
	}
}

// Slice is an in-memory Stream over an edge slice. The zero value is an
// exhausted stream.
type Slice struct {
	edges []graph.Edge
	pos   int
}

// FromEdges returns a Stream over edges in order. The slice is not copied;
// callers must not mutate it while streaming.
func FromEdges(edges []graph.Edge) *Slice {
	return &Slice{edges: edges}
}

// FromGraph returns a Stream over g's edge list in stream order.
func FromGraph(g *graph.Graph) *Slice {
	return &Slice{edges: g.Edges}
}

// NextBatch implements Stream: a single copy out of the backing slice.
func (s *Slice) NextBatch(dst []graph.Edge) int {
	n := copy(dst, s.edges[s.pos:])
	s.pos += n
	return n
}

// Remaining implements Stream.
func (s *Slice) Remaining() int64 { return int64(len(s.edges) - s.pos) }

// Reset rewinds the stream to the first edge, allowing reuse across
// experiment repetitions.
func (s *Slice) Reset() { s.pos = 0 }

// Shuffled returns a new edge slice holding a seeded pseudo-random
// permutation of edges. The input is not modified. Streaming partitioner
// quality depends on stream order; experiments fix the seed so runs are
// comparable.
func Shuffled(edges []graph.Edge, seed uint64) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	copy(out, edges)
	rng := rand.New(rand.NewPCG(seed, 0x57a7e))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Interleave reorders edges by splitting them into `blocks` contiguous
// blocks and emitting them round-robin, one edge per block. It models
// stream orders with diluted locality — e.g. a breadth-first web crawl
// whose frontier cycles through many sites — without the total locality
// loss of a full shuffle. The input is not modified. blocks <= 1 returns a
// plain copy.
func Interleave(edges []graph.Edge, blocks int) []graph.Edge {
	out := make([]graph.Edge, 0, len(edges))
	if blocks <= 1 {
		return append(out, edges...)
	}
	chunks := Chunks(edges, blocks)
	for round := 0; len(out) < len(edges); round++ {
		for _, ch := range chunks {
			if round < len(ch) {
				out = append(out, ch[round])
			}
		}
	}
	return out
}

// Chunks splits edges into z contiguous chunks whose sizes differ by at
// most one, mirroring the paper's parallel loading model where each of the
// z partitioner instances receives a disjoint chunk of the global graph.
// It returns fewer than z chunks only when len(edges) < z.
func Chunks(edges []graph.Edge, z int) [][]graph.Edge {
	if z <= 0 {
		z = 1
	}
	if z > len(edges) {
		z = len(edges)
	}
	if z == 0 {
		return nil
	}
	chunks := make([][]graph.Edge, 0, z)
	base, extra := len(edges)/z, len(edges)%z
	start := 0
	for i := 0; i < z; i++ {
		size := base
		if i < extra {
			size++
		}
		chunks = append(chunks, edges[start:start+size])
		start += size
	}
	return chunks
}

// Buffered adapts any Stream into one whose Next is a cheap slice read:
// edges are pulled from the inner stream a batch at a time.
// Consumers that must inspect edges one by one (the ADWISE window refill)
// hold a concrete *Buffered so the per-edge call devirtualizes, while the
// inner stream is only touched once per batch.
type Buffered struct {
	inner Stream
	buf   []graph.Edge
	pos   int
	done  bool
}

// DefaultBatchSize is the batch granularity used by batch-aware consumers
// (partition.Run, the ADWISE refill loop, Buffered's default).
const DefaultBatchSize = 512

// NewBuffered wraps s with a batch buffer of the given size (<= 0 selects
// DefaultBatchSize). If s is already a *Buffered it is returned unchanged.
func NewBuffered(s Stream, size int) *Buffered {
	if b, ok := s.(*Buffered); ok {
		return b
	}
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &Buffered{inner: s, buf: make([]graph.Edge, 0, size)}
}

// Next returns the next edge from the buffer, refilling it batch-wise;
// the bool is false when the stream is exhausted.
func (b *Buffered) Next() (graph.Edge, bool) {
	if b.pos >= len(b.buf) {
		if b.done {
			return graph.Edge{}, false
		}
		b.buf = b.buf[:cap(b.buf)]
		n := b.inner.NextBatch(b.buf)
		b.buf = b.buf[:n]
		b.pos = 0
		if n == 0 {
			b.done = true
			return graph.Edge{}, false
		}
	}
	e := b.buf[b.pos]
	b.pos++
	return e, true
}

// NextBatch implements Stream: buffered edges first, then straight from
// the inner stream without double-copying.
func (b *Buffered) NextBatch(dst []graph.Edge) int {
	if b.pos < len(b.buf) {
		n := copy(dst, b.buf[b.pos:])
		b.pos += n
		return n
	}
	if b.done {
		return 0
	}
	n := b.inner.NextBatch(dst)
	if n == 0 {
		b.done = true
	}
	return n
}

// Remaining implements Stream: the inner remainder plus the edges already
// buffered but not yet handed out, so latency accounting (condition C2)
// stays exact under batching.
func (b *Buffered) Remaining() int64 {
	return b.inner.Remaining() + int64(len(b.buf)-b.pos)
}

// Err implements Errer, forwarding the inner stream's error state: a
// buffered stream whose source failed must not look cleanly exhausted.
func (b *Buffered) Err() error { return Err(b.inner) }
