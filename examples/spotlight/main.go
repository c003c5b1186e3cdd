// Spotlight: parallel graph loading with restricted spread (§III-D of the
// paper). Eight partitioner instances each load one chunk of the stream;
// sweeping the spread from k (classic shared loading) down to k/z
// (disjoint spotlight groups) shows the replication-degree reduction.
//
//	go run ./examples/spotlight
package main

import (
	"fmt"
	"log"

	adwise "github.com/adwise-go/adwise"
)

func main() {
	g, err := adwise.Generate(adwise.GraphBrain, 0.1, 42)
	if err != nil {
		log.Fatal(err)
	}
	const (
		k = 32
		z = 8
	)
	fmt.Printf("graph: %d vertices, %d edges; k=%d partitions, z=%d parallel loaders\n", g.V(), g.E(), k, z)
	fmt.Printf("%-8s %-10s %s\n", "spread", "strategy", "replication degree")

	for _, spread := range []int{32, 16, 8, 4} {
		for _, strategy := range []string{"hdrf", "adwise"} {
			cfg := adwise.SpotlightConfig{K: k, Z: z, Spread: spread}
			streams, err := adwise.ChunkStreams(g.Edges, z)
			if err != nil {
				log.Fatal(err)
			}
			// One registry spec covers both strategies: HDRF ignores the
			// window knob, ADWISE runs a fixed 64-edge window.
			a, _, err := adwise.RunSpotlight(streams, cfg,
				cfg.Instances(strategy, adwise.StrategySpec{K: k, Window: 64}))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8d %-10s %.3f\n", spread, strategy, adwise.Summarize(a).ReplicationDegree)
		}
	}
	fmt.Println("\nsmaller spread preserves stream locality: each loader fills its own partition group")
}
