package mlps

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/daiet/daiet/internal/hashing"
)

// TrainConfig parameterizes the distributed training run. The zero value is
// not valid; use Figure1aConfig/Figure1bConfig or fill explicitly.
type TrainConfig struct {
	Workers   int
	BatchSize int
	Steps     int
	Optimizer OptimizerKind
	LR        float64
	Seed      uint64
	// RelThreshold is the relative magnitude below which a gradient element
	// is treated as not-updated when computing the transmitted-update set
	// (it never affects training itself, which always applies the exact
	// aggregated gradient). See EXPERIMENTS.md for the calibration note.
	RelThreshold float64
}

// Figure1aConfig is the paper's SGD setup: mini-batch of 3, five workers.
func Figure1aConfig(seed uint64) TrainConfig {
	return TrainConfig{
		Workers: 5, BatchSize: 3, Steps: 200,
		Optimizer: OptSGD, LR: 0.5, Seed: seed,
		RelThreshold: 0.07,
	}
}

// Figure1bConfig is the paper's Adam setup: mini-batch of 100, five
// workers. The relative threshold separates meaningful updates from
// noise-level elements in the large-batch gradient.
func Figure1bConfig(seed uint64) TrainConfig {
	return TrainConfig{
		Workers: 5, BatchSize: 100, Steps: 200,
		Optimizer: OptAdam, LR: 0.01, Seed: seed,
		RelThreshold: 0.115,
	}
}

// StepMetrics is one training step's measurements: the loss plus the
// overlap statistic Figure 1 plots.
type StepMetrics struct {
	Step int
	Loss float64
	// OverlapPct is 100 × |elements updated by >=2 workers| / |elements
	// updated by >=1 worker| — the paper's overlap definition.
	OverlapPct float64
	// TrafficReductionPct is 100 × (1 - unique/total): the share of update
	// traffic in-network aggregation would absorb this step.
	TrafficReductionPct float64
	TotalUpdates        int // sum over workers of transmitted elements
	UniqueUpdates       int // distinct elements across workers
}

// TrainResult bundles the series and the final model.
type TrainResult struct {
	Config  TrainConfig
	Metrics []StepMetrics
	Model   *Model
	// FinalAccuracy is measured on held-out samples.
	FinalAccuracy float64
}

// Train runs synchronous data-parallel training: each step, every worker
// computes a gradient on its own mini-batch; the parameter server sums the
// contributions (the aggregation DAIET offloads), averages, and applies the
// optimizer. Update overlap is measured on the per-worker transmitted sets.
//
// The workers of a step run on up to GOMAXPROCS goroutines. The result is
// bit-identical at any GOMAXPROCS: each worker's gradient is computed in a
// fixed per-element order, and the losses and update sets are merged in
// worker order.
func Train(d *Dataset, cfg TrainConfig) (*TrainResult, error) {
	if cfg.Workers < 1 || cfg.BatchSize < 1 || cfg.Steps < 1 {
		return nil, fmt.Errorf("mlps: invalid config %+v", cfg)
	}
	if d.Len() < cfg.Workers*cfg.BatchSize {
		return nil, fmt.Errorf("mlps: dataset of %d too small for %d workers × batch %d",
			d.Len(), cfg.Workers, cfg.BatchSize)
	}
	model := NewModel()
	var opt Optimizer
	switch cfg.Optimizer {
	case OptAdam:
		opt = NewAdam(cfg.LR)
	default:
		opt = NewSGD(cfg.LR)
	}

	// Shard the dataset across workers, MNIST-style data parallelism.
	shards := make([][]int, cfg.Workers)
	for i := 0; i < d.Len(); i++ {
		w := i % cfg.Workers
		shards[w] = append(shards[w], i)
	}
	rngs := make([]*rand.Rand, cfg.Workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(int64(hashing.Mix64(cfg.Seed ^ uint64(w+1)<<40))))
	}

	res := &TrainResult{Config: cfg, Model: model, Metrics: make([]StepMetrics, 0, cfg.Steps)}
	grads := make([]*Grad, cfg.Workers)
	batches := make([][]int, cfg.Workers)
	for w := range grads {
		grads[w] = NewGrad()
		batches[w] = make([]int, 0, cfg.BatchSize)
	}
	losses := make([]float64, cfg.Workers)
	agg := NewGrad()
	counts := make([]int32, WeightDim)
	idxScratch := make([]int, 0, WeightDim)

	// Each worker's step touches only its own RNG, batch, gradient and
	// loss slot, and reads the model the caller leaves untouched until
	// every worker is done, so the workers may run on any goroutine.
	work := func(w int) {
		batches[w] = sampleBatch(rngs[w], shards[w], cfg.BatchSize, batches[w])
		losses[w] = model.Gradient(d, batches[w], grads[w])
	}
	pool := newStepPool(min(runtime.GOMAXPROCS(0), cfg.Workers), cfg.Workers, work)
	defer pool.close()

	for step := 0; step < cfg.Steps; step++ {
		pool.run()
		// Merge in worker order: the loss sum and the counts come out the
		// same however the workers were scheduled.
		var stepLoss float64
		for i := range counts {
			counts[i] = 0
		}
		for w := 0; w < cfg.Workers; w++ {
			stepLoss += losses[w]
			idxScratch = grads[w].UpdatedIndices(cfg.RelThreshold, idxScratch)
			for _, idx := range idxScratch {
				counts[idx]++
			}
		}
		// Overlap statistics.
		var once, multi, total int
		for _, c := range counts {
			if c == 0 {
				continue
			}
			once++
			if c >= 2 {
				multi++
			}
			total += int(c)
		}
		m := StepMetrics{Step: step, Loss: stepLoss / float64(cfg.Workers)}
		if once > 0 {
			m.OverlapPct = 100 * float64(multi) / float64(once)
			m.UniqueUpdates = once
			m.TotalUpdates = total
			m.TrafficReductionPct = 100 * (1 - float64(once)/float64(total))
		}
		res.Metrics = append(res.Metrics, m)

		// Parameter-server aggregation (sum) and optimizer step on the
		// mean gradient.
		agg.Reset()
		for w := 0; w < cfg.Workers; w++ {
			agg.Accumulate(grads[w])
		}
		agg.Scale(1 / float32(cfg.Workers))
		opt.Step(model, agg)
	}

	// Accuracy on a deterministic holdout slice (last 10%).
	hold := d.Len() / 10
	correct := 0
	for i := d.Len() - hold; i < d.Len(); i++ {
		if model.Predict(d.Images[i]) == d.Labels[i] {
			correct++
		}
	}
	if hold > 0 {
		res.FinalAccuracy = float64(correct) / float64(hold)
	}
	return res, nil
}

// sampleBatch draws n samples from shard with replacement into out's
// storage and returns them.
func sampleBatch(rng *rand.Rand, shard []int, n int, out []int) []int {
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, shard[rng.Intn(len(shard))])
	}
	return out
}

// stepPool runs one training step's workers on a fixed set of helper
// goroutines, started once per Train call and stopped by close.
type stepPool struct {
	workers int
	work    func(w int)
	tasks   chan int
	step    sync.WaitGroup // the current step's workers
	helpers sync.WaitGroup // running helper goroutines
	// panics[w] holds the value worker w's work panicked with, so run can
	// re-raise it on the calling goroutine.
	panics []any
}

func newStepPool(helpers, workers int, work func(w int)) *stepPool {
	p := &stepPool{
		workers: workers,
		work:    work,
		// Sized to one step's sends, so feeding a step never blocks.
		tasks:  make(chan int, workers),
		panics: make([]any, workers),
	}
	p.helpers.Add(helpers)
	for h := 0; h < helpers; h++ {
		go p.helper()
	}
	return p
}

func (p *stepPool) helper() {
	defer p.helpers.Done()
	for w := range p.tasks {
		p.do(w)
	}
}

func (p *stepPool) do(w int) {
	defer p.step.Done()
	defer func() {
		if r := recover(); r != nil {
			p.panics[w] = r
		}
	}()
	p.work(w)
}

// run executes work(0) … work(workers-1) and returns once all are done. A
// panic in any of them is re-raised here, the lowest worker's first.
func (p *stepPool) run() {
	p.step.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.tasks <- w
	}
	p.step.Wait()
	for _, r := range p.panics {
		if r != nil {
			panic(r)
		}
	}
}

// close stops the helper goroutines and returns once they have exited.
func (p *stepPool) close() {
	close(p.tasks)
	p.helpers.Wait()
}

// MeanOverlap averages the overlap series (the single number the paper
// quotes: "around 42.5% and 66.5%").
func MeanOverlap(ms []StepMetrics) float64 {
	if len(ms) == 0 {
		return 0
	}
	var s float64
	for _, m := range ms {
		s += m.OverlapPct
	}
	return s / float64(len(ms))
}
