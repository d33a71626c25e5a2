// Package experiments regenerates every figure in the paper's evaluation.
// It is the single source of truth shared by cmd/daiet-bench (pretty
// printing), bench_test.go (testing.B harnesses) and EXPERIMENTS.md
// (paper-vs-measured records).
package experiments

import (
	"fmt"
	"math/bits"

	"github.com/daiet/daiet/internal/graphgen"
	"github.com/daiet/daiet/internal/mlps"
	"github.com/daiet/daiet/internal/pregel"
	"github.com/daiet/daiet/internal/stats"
)

// overlapFigure trains one config and reports the Figure 1(a)/1(b)
// headline numbers: the mean per-step overlap, the final accuracy, and the
// first and last loss (a sanity signal that the workload is real).
func overlapFigure(name string, cfg mlps.TrainConfig, samples int) (map[string]float64, error) {
	res, err := mlps.Train(mlps.SyntheticMNIST(cfg.Seed, samples), cfg)
	if err != nil {
		return nil, err
	}
	if len(res.Metrics) == 0 {
		// Guard the first/last indexing below: a run that produced no metric
		// rows has nothing to report and must not panic the harness.
		return nil, fmt.Errorf("experiments: %s: training returned no metric rows (config %+v)",
			name, cfg)
	}
	ys := make([]float64, len(res.Metrics))
	for i, m := range res.Metrics {
		ys[i] = m.OverlapPct
	}
	return map[string]float64{
		"mean_overlap_pct": stats.Summarize(ys).Mean,
		"final_accuracy":   res.FinalAccuracy,
		"first_loss":       res.Metrics[0].Loss,
		"last_loss":        res.Metrics[len(res.Metrics)-1].Loss,
	}, nil
}

// ---- sweep-framework specs ----

// fig1cGraphs memoizes R-MAT graphs across the fig1c points: seeds are
// paired across the three algorithm points, so each trial would otherwise
// rebuild the identical graph three times. The graph's one lazily-cached
// view (the undirected adjacency, Und) is materialized before storing, so
// concurrent points share the cached graph read-only.
var fig1cGraphs memo[graphgen.RMATConfig, *graphgen.Graph]

func fig1cGraph(cfg graphgen.RMATConfig) (*graphgen.Graph, error) {
	return fig1cGraphs.get(cfg, func(cfg graphgen.RMATConfig) (*graphgen.Graph, error) {
		g, err := graphgen.RMAT(cfg)
		if err != nil {
			return nil, err
		}
		g.Und()
		return g, nil
	})
}

// overlapSpec builds the Spec shared by Figures 1(a) and 1(b): one axis
// point, multi-seed training ensembles.
func overlapSpec(name, label, title string, mkCfg func(seed uint64) mlps.TrainConfig) *Spec {
	return &Spec{
		Name:    name,
		Title:   title,
		XLabel:  "optimizer",
		Points:  []Point{{Label: label, X: 0}},
		Metrics: []string{"mean_overlap_pct", "final_accuracy", "first_loss", "last_loss"},
		Run: func(_ Point, tr Trial) (map[string]float64, error) {
			cfg := mkCfg(tr.Seed)
			cfg.Steps = scaledInt(cfg.Steps, tr.Scale, 10)
			// The dataset must cover one full step for every worker plus
			// held-out samples, whatever the scale.
			samples := scaledInt(4000, tr.Scale, 2*cfg.Workers*cfg.BatchSize)
			return overlapFigure(name, cfg, samples)
		},
	}
}

func init() {
	Register(overlapSpec("fig1a", "sgd",
		"Figure 1(a): SGD (mini-batch 3, 5 workers) tensor-update overlap (paper ~42.5%, band 34-50%)",
		mlps.Figure1aConfig))
	Register(overlapSpec("fig1b", "adam",
		"Figure 1(b): Adam (mini-batch 100, 5 workers) tensor-update overlap (paper ~66.5%, band 62-72%)",
		mlps.Figure1bConfig))

	Register(&Spec{
		Name:    "fig1-workers",
		Title:   "Figure 1 side experiment: overlap vs worker count (paper: increases from 2 to 5)",
		XLabel:  "workers",
		Points:  []Point{{Label: "2w", X: 2}, {Label: "3w", X: 3}, {Label: "4w", X: 4}, {Label: "5w", X: 5}},
		Metrics: []string{"overlap_pct"},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			cfg := mlps.Figure1aConfig(tr.Seed)
			cfg.Workers = int(pt.X)
			cfg.Steps = scaledInt(100, tr.Scale, 10)
			ds := mlps.SyntheticMNIST(tr.Seed, scaledInt(2500, tr.Scale, 300))
			res, err := mlps.Train(ds, cfg)
			if err != nil {
				return nil, err
			}
			return map[string]float64{"overlap_pct": mlps.MeanOverlap(res.Metrics)}, nil
		},
	})

	Register(&Spec{
		Name:   "fig1c",
		Title:  "Figure 1(c): graph analytics potential traffic reduction (paper band 0.48-0.93)",
		XLabel: "algorithm",
		Points: []Point{{Label: "pagerank", X: 0}, {Label: "sssp", X: 1}, {Label: "wcc", X: 2}},
		Metrics: []string{
			"mean_traffic_reduction", "start_traffic_reduction",
		},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			// RMAT sizes in powers of two, so the linear scale knob maps to
			// the nearest covering exponent: scale 1 is the paper's 2^16
			// vertices, smaller scales shrink proportionally (floor 2^10).
			vertices := scaledInt(1<<16, tr.Scale, 1<<10)
			g, err := fig1cGraph(graphgen.RMATConfig{
				Scale:      bits.Len(uint(vertices - 1)),
				EdgeFactor: 14,
				Seed:       tr.Seed,
			})
			if err != nil {
				return nil, err
			}
			pcfg := pregel.Config{Workers: 4, MaxSupersteps: 10}
			var sts []pregel.SuperstepStats
			switch pt.Label {
			case "pagerank":
				sts = pregel.PageRank(g, pcfg).Stats
			case "sssp":
				res, err := pregel.SSSP(g, g.HighestDegreeVertex(), pcfg)
				if err != nil {
					return nil, err
				}
				sts = res.Stats
			case "wcc":
				sts = pregel.WCC(g, pcfg).Stats
			default:
				return nil, fmt.Errorf("experiments: unknown graph algorithm %q", pt.Label)
			}
			if len(sts) == 0 {
				return nil, fmt.Errorf("experiments: %s produced no supersteps", pt.Label)
			}
			var sum float64
			for _, st := range sts {
				sum += st.TrafficReduction
			}
			return map[string]float64{
				"mean_traffic_reduction":  sum / float64(len(sts)),
				"start_traffic_reduction": sts[0].TrafficReduction,
			}, nil
		},
	})
}
