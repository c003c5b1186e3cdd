// Package streamerrfix is a lint fixture: positive and negative cases
// for the streamerr rule (the PR-3 stream error contract).
package streamerrfix

import (
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/stream"
)

// DrainSilently consumes the stream to exhaustion and never consults
// Err: a truncated file would pass as a short success.
func DrainSilently(s stream.Stream) []graph.Edge {
	var out []graph.Edge
	var buf [64]graph.Edge
	for {
		n := s.NextBatch(buf[:]) // want "drains a stream to exhaustion without checking Err"
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// DrainFileSilently drains a file stream and never consults its Err
// method.
func DrainFileSilently(b stream.FileStream, buf []graph.Edge) int64 {
	var total int64
	for {
		n := b.NextBatch(buf) // want "drains a stream to exhaustion without checking Err"
		if n == 0 {
			return total
		}
		total += int64(n)
	}
}

// DrainNextSilently drains edge-at-a-time via the type-resolved Next.
func DrainNextSilently(s *stream.Buffered) int {
	count := 0
	for {
		_, ok := s.Next() // want "drains a stream to exhaustion without checking Err"
		if !ok {
			return count
		}
		count++
	}
}

// DrainLookalikeErr calls a bare Err that is not the stream package's:
// the check does not count.
func DrainLookalikeErr(s stream.Stream, buf []graph.Edge) (int64, error) {
	Err := func(stream.Stream) error { return nil }
	var total int64
	for {
		n := s.NextBatch(buf) // want "drains a stream to exhaustion without checking Err"
		if n == 0 {
			return total, Err(s)
		}
		total += int64(n)
	}
}
