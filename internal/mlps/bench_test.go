package mlps

import "testing"

// BenchmarkGradient measures one mini-batch gradient (batch 100, the Adam
// configuration's per-step worker cost).
func BenchmarkGradient(b *testing.B) {
	d := SyntheticMNIST(1, 500)
	m := NewModel()
	g := NewGrad()
	batch := make([]int, 100)
	for i := range batch {
		batch[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Gradient(d, batch, g)
	}
}

// BenchmarkForward measures one image's class probabilities, the
// per-sample cost of evaluation and of each Gradient sample's forward pass.
func BenchmarkForward(b *testing.B) {
	d := SyntheticMNIST(1, 100)
	m := NewModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchProbs = m.Forward(d.Images[i%len(d.Images)])
	}
}

var benchProbs [Classes]float64

// BenchmarkTrainFigure1b measures one whole Figure 1(b) training run (Adam,
// five workers, batch 100, 200 steps) on a prebuilt dataset: the kernel,
// the per-step worker fan-out, the overlap merge and the optimizer
// together.
func BenchmarkTrainFigure1b(b *testing.B) {
	d := SyntheticMNIST(1, 4000)
	cfg := Figure1bConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdatedIndices measures the transmitted-update extraction.
func BenchmarkUpdatedIndices(b *testing.B) {
	d := SyntheticMNIST(1, 500)
	m := NewModel()
	g := NewGrad()
	batch := []int{0, 1, 2}
	m.Gradient(d, batch, g)
	var idx []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx = g.UpdatedIndices(0.07, idx)
	}
	_ = idx
}

// BenchmarkAdamStep measures one full-tensor Adam update.
func BenchmarkAdamStep(b *testing.B) {
	d := SyntheticMNIST(1, 200)
	m := NewModel()
	opt := NewAdam(0.01)
	g := NewGrad()
	m.Gradient(d, []int{0, 1, 2, 3}, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(m, g)
	}
}

// BenchmarkSyntheticMNIST measures dataset generation throughput.
func BenchmarkSyntheticMNIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SyntheticMNIST(uint64(i), 100)
	}
}
