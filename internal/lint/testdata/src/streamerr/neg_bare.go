package streamerrfix

import (
	"github.com/adwise-go/adwise/internal/graph"
	. "github.com/adwise-go/adwise/internal/stream"
)

// DrainCheckedBare checks through a bare Err call that resolves to the
// stream package's Err, as code inside package stream does.
func DrainCheckedBare(s Stream, buf []graph.Edge) (int64, error) {
	var total int64
	for {
		n := s.NextBatch(buf)
		if n == 0 {
			return total, Err(s)
		}
		total += int64(n)
	}
}
