package bench

import (
	"fmt"
	"time"

	"github.com/adwise-go/adwise/internal/core"
	"github.com/adwise-go/adwise/internal/gen"
	"github.com/adwise-go/adwise/internal/metrics"
	"github.com/adwise-go/adwise/internal/runtime"
	"github.com/adwise-go/adwise/internal/stream"
)

// Ablations for the design choices called out in DESIGN.md §5: lazy vs
// eager traversal, adaptive vs fixed λ, clustering score on/off, and
// stream order. These are not paper figures; they justify the ADWISE
// design decisions empirically.

// AblationLazy compares lazy window traversal against the eager O(w·|P|)
// baseline: same windows, score-computation counts, latency, and quality.
func AblationLazy(cfg Config) (*Table, error) {
	g, err := gen.BrainLike(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: ablation-lazy: %w", err)
	}
	edges := stream.Interleave(g.Edges, 64)
	clk := cfg.clock()
	t := &Table{
		ID:      "Ablation: lazy traversal",
		Title:   fmt.Sprintf("Lazy vs eager window traversal (Brain-like, k=%d, single instance)", cfg.K),
		Columns: []string{"variant", "window", "RF", "score ops", "latency"},
	}
	for _, w := range []int{16, 64, 256} {
		for _, lazy := range []bool{true, false} {
			opts := []core.Option{core.WithInitialWindow(w), core.WithFixedWindow()}
			name := "lazy"
			if !lazy {
				opts = append(opts, core.WithEagerTraversal())
				name = "eager"
			}
			ad, err := core.New(cfg.K, opts...)
			if err != nil {
				return nil, err
			}
			start := clk.Now()
			a, err := ad.Run(stream.FromEdges(edges))
			if err != nil {
				return nil, err
			}
			lat := clk.Now().Sub(start)
			st := ad.Stats()
			t.AddRow(name, w, metrics.Summarize(a).ReplicationDegree, st.ScoreComputations, lat)
			cfg.progressf("ablation-lazy: %s w=%d ops=%d lat=%v", name, w, st.ScoreComputations, lat.Round(time.Millisecond))
		}
	}
	t.Notes = append(t.Notes, "lazy traversal must cut score computations at comparable RF (§III-B)")
	return t, nil
}

// AblationLambda compares the adaptive balancing weight λ(ι,α) of Eq. 4
// against fixed settings, including HDRF's recommended λ=1.1.
func AblationLambda(cfg Config) (*Table, error) {
	g, err := gen.BrainLike(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: ablation-lambda: %w", err)
	}
	edges := stream.Interleave(g.Edges, 64)
	t := &Table{
		ID:      "Ablation: adaptive lambda",
		Title:   fmt.Sprintf("Adaptive vs fixed balancing weight (Brain-like, k=%d, w=128)", cfg.K),
		Columns: []string{"variant", "RF", "imbalance", "final λ"},
	}
	variants := []struct {
		name string
		opts []core.Option
	}{
		{"adaptive", nil},
		{"fixed λ=0.4", []core.Option{core.WithFixedLambda(0.4)}},
		{"fixed λ=1.1", []core.Option{core.WithFixedLambda(1.1)}},
		{"fixed λ=5.0", []core.Option{core.WithFixedLambda(5.0)}},
	}
	for _, v := range variants {
		opts := append([]core.Option{core.WithInitialWindow(128), core.WithFixedWindow()}, v.opts...)
		ad, err := core.New(cfg.K, opts...)
		if err != nil {
			return nil, err
		}
		a, err := ad.Run(stream.FromEdges(edges))
		if err != nil {
			return nil, err
		}
		s := metrics.Summarize(a)
		t.AddRow(v.name, s.ReplicationDegree, s.Imbalance, fmt.Sprintf("%.2f", ad.Stats().FinalLambda))
		cfg.progressf("ablation-lambda: %s RF=%.3f imb=%.3f", v.name, s.ReplicationDegree, s.Imbalance)
	}
	t.Notes = append(t.Notes,
		"adaptive λ should match the best fixed setting without per-graph tuning (§III-C)")
	return t, nil
}

// AblationClustering toggles the clustering score per evaluation graph —
// the paper switches it off on Orkut because ĉ is negligible there.
func AblationClustering(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Ablation: clustering score",
		Title:   fmt.Sprintf("Clustering score on/off per graph (k=%d, w=128, single instance)", cfg.K),
		Columns: []string{"graph", "ĉ regime", "RF with CS", "RF without CS", "delta"},
	}
	regimes := map[gen.Preset]string{
		gen.PresetOrkut: "low (0.04)",
		gen.PresetBrain: "moderate (0.51)",
		gen.PresetWeb:   "high (0.82)",
	}
	for _, preset := range gen.Presets() {
		_, edges, err := cfg.evalGraph(preset)
		if err != nil {
			return nil, err
		}
		rf := func(on bool) (float64, error) {
			ad, err := core.New(cfg.K,
				core.WithInitialWindow(128), core.WithFixedWindow(),
				core.WithClusteringScore(on))
			if err != nil {
				return 0, err
			}
			a, err := ad.Run(stream.FromEdges(edges))
			if err != nil {
				return 0, err
			}
			return metrics.Summarize(a).ReplicationDegree, nil
		}
		with, err := rf(true)
		if err != nil {
			return nil, err
		}
		without, err := rf(false)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(preset), regimes[preset], with, without,
			fmt.Sprintf("%+.1f%%", 100*(with-without)/without))
		cfg.progressf("ablation-cs: %s with=%.3f without=%.3f", preset, with, without)
	}
	return t, nil
}

// AblationOrder compares stream orders: the generator's natural (file)
// order against a seeded shuffle, for HDRF and ADWISE. Stream locality is
// what windowing and spotlight exploit; this quantifies it.
func AblationOrder(cfg Config) (*Table, error) {
	g, err := gen.BrainLike(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: ablation-order: %w", err)
	}
	t := &Table{
		ID:      "Ablation: stream order",
		Title:   fmt.Sprintf("Stream order sensitivity (Brain-like, k=%d, z=%d, spread=%d)", cfg.K, cfg.Z, cfg.Spread),
		Columns: []string{"order", "strategy", "RF"},
	}
	for _, order := range []string{"natural", "interleave-64", "shuffled"} {
		var edges = g.Edges
		switch order {
		case "interleave-64":
			edges = stream.Interleave(g.Edges, 64)
		case "shuffled":
			edges = stream.Shuffled(g.Edges, cfg.Seed+1)
		}
		for _, v := range []struct {
			strat string
			spec  runtime.Spec
		}{
			{"hdrf", runtime.Spec{}},
			{"adwise", runtime.Spec{Window: 128}},
		} {
			r, err := cfg.runStrategy(v.strat, edges, v.spec)
			if err != nil {
				return nil, fmt.Errorf("bench: ablation-order %s/%s: %w", order, v.strat, err)
			}
			rf := r.Summary.ReplicationDegree
			t.AddRow(order, v.strat, rf)
			cfg.progressf("ablation-order: %s %s RF=%.3f", order, v.strat, rf)
		}
	}
	return t, nil
}

// AblationWindow sweeps fixed window sizes — the latency/quality knob in
// its rawest form (the mechanism behind the Figure 7 latency sweep).
func AblationWindow(cfg Config) (*Table, error) {
	g, err := gen.BrainLike(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: ablation-window: %w", err)
	}
	edges := stream.Interleave(g.Edges, 64)
	clk := cfg.clock()
	t := &Table{
		ID:      "Ablation: window size",
		Title:   fmt.Sprintf("Fixed window sweep (Brain-like, k=%d, single instance)", cfg.K),
		Columns: []string{"window", "RF", "latency", "score ops"},
	}
	for _, w := range []int{1, 4, 16, 64, 256, 1024} {
		ad, err := core.New(cfg.K, core.WithInitialWindow(w), core.WithFixedWindow())
		if err != nil {
			return nil, err
		}
		start := clk.Now()
		a, err := ad.Run(stream.FromEdges(edges))
		if err != nil {
			return nil, err
		}
		lat := clk.Now().Sub(start)
		t.AddRow(w, metrics.Summarize(a).ReplicationDegree, lat, ad.Stats().ScoreComputations)
		cfg.progressf("ablation-window: w=%d lat=%v", w, lat.Round(time.Millisecond))
	}
	return t, nil
}
