package main

import (
	"fmt"
	"math"
	"time"

	"github.com/daiet/daiet/internal/mlps"
	"github.com/daiet/daiet/internal/stats"
)

// Figure 1(b): Adam, 5 workers, batch 100, 200 steps on 4000 synthetic
// MNIST samples.
const (
	mlSamples = 4000
	// mlProbeCalls is how many Model.Gradient and Adam.Step calls a traced
	// iteration times on their own.
	mlProbeCalls = 16
)

type mltrain struct {
	seed uint64
	cfg  mlps.TrainConfig
}

func newMLTrain(seed uint64) *mltrain {
	return &mltrain{seed: seed, cfg: mlps.Figure1bConfig(seed)}
}

func (w *mltrain) iterate(t *timer) (*outcome, error) {
	var ds *mlps.Dataset
	var res *mlps.TrainResult

	t.begin(phaseSetup)
	_ = t.call("mlps.dataset", func() error {
		ds = mlps.SyntheticMNIST(w.seed, mlSamples)
		return nil
	})
	t.end()

	t.begin(phaseSimulate)
	err := t.call("mlps.train", func() error {
		var err error
		res, err = mlps.Train(ds, w.cfg)
		return err
	})
	t.end()
	if err != nil {
		return nil, err
	}
	t.sampleHeap()

	t.begin(phaseVerify)
	var out *outcome
	err = t.call("verify", func() error {
		var err error
		out, err = w.verify(res)
		return err
	})
	t.end()
	if err != nil {
		return nil, err
	}
	if t.tr != nil {
		out.layer["mlps.gradient_ns"], out.layer["mlps.optimizer_ns"] = w.probe(ds)
	}
	return out, nil
}

// verify checks that every step's loss is finite and that training ran
// every step.
func (w *mltrain) verify(res *mlps.TrainResult) (*outcome, error) {
	if len(res.Metrics) != w.cfg.Steps {
		return nil, fmt.Errorf("trained %d steps, want %d", len(res.Metrics), w.cfg.Steps)
	}
	var reduction float64
	for _, m := range res.Metrics {
		if math.IsNaN(m.Loss) || math.IsInf(m.Loss, 0) {
			return nil, fmt.Errorf("step %d: loss %v", m.Step, m.Loss)
		}
		reduction += m.TrafficReductionPct
	}
	last := res.Metrics[len(res.Metrics)-1]
	return &outcome{
		fingerprint:  fmt.Sprintf("loss=%x accuracy=%v", math.Float64bits(last.Loss), res.FinalAccuracy),
		steps:        len(res.Metrics),
		reductionPct: reduction / float64(len(res.Metrics)),
		overlapPct:   mlps.MeanOverlap(res.Metrics),
		layer:        map[string]float64{},
	}, nil
}

// probe times Model.Gradient on one fixed batch and Adam.Step on fresh
// state, each call on its own, and returns the median nanoseconds of each.
func (w *mltrain) probe(ds *mlps.Dataset) (gradientNs, optimizerNs float64) {
	batch := make([]int, w.cfg.BatchSize)
	for i := range batch {
		batch[i] = i
	}
	model, grad, opt := mlps.NewModel(), mlps.NewGrad(), mlps.NewAdam(w.cfg.LR)
	grads := make([]float64, mlProbeCalls)
	steps := make([]float64, mlProbeCalls)
	for i := range grads {
		start := time.Now()
		model.Gradient(ds, batch, grad)
		mid := time.Now()
		opt.Step(model, grad)
		grads[i] = float64(mid.Sub(start).Nanoseconds())
		steps[i] = float64(time.Since(mid).Nanoseconds())
	}
	return stats.Median(grads), stats.Median(steps)
}

func (w *mltrain) crossCheck(*outcome) error { return nil }
