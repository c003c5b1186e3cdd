//go:build race

package serve

// Under the race detector sync.Pool drops a share of its items at
// random, so allocation counts of pooled paths are not meaningful.
func init() { raceEnabled = true }
