package streamerrfix

import (
	"github.com/adwise-go/adwise/internal/graph"
	"github.com/adwise-go/adwise/internal/stream"
)

// DrainChecked is the compliant drain loop: exhaustion is only a success
// once Err reports clean.
func DrainChecked(s stream.Stream) ([]graph.Edge, error) {
	var out []graph.Edge
	var buf [64]graph.Edge
	for {
		n := s.NextBatch(buf[:])
		if n == 0 {
			if err := stream.Err(s); err != nil {
				return nil, err
			}
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// CountChecked drains via the Errer method form.
func CountChecked(b stream.FileStream, buf []graph.Edge) (int64, error) {
	var total int64
	for {
		n := b.NextBatch(buf)
		if n == 0 {
			break
		}
		total += int64(n)
	}
	if err := b.Err(); err != nil {
		return 0, err
	}
	return total, nil
}

// PeekOnce takes a single batch without draining to exhaustion — no loop,
// no obligation.
func PeekOnce(s stream.Stream, buf []graph.Edge) int {
	return s.NextBatch(buf)
}
