package mlps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	return SyntheticMNIST(1, n)
}

func TestDatasetShape(t *testing.T) {
	d := testDataset(t, 500)
	if d.Len() != 500 {
		t.Fatalf("len %d", d.Len())
	}
	for i, img := range d.Images {
		if len(img) != Pixels {
			t.Fatalf("image %d has %d pixels", i, len(img))
		}
		if d.Labels[i] < 0 || d.Labels[i] >= Classes {
			t.Fatalf("label %d", d.Labels[i])
		}
		for p, v := range img {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %d value %f", p, v)
			}
		}
	}
}

func TestDatasetBorderDead(t *testing.T) {
	d := testDataset(t, 300)
	for _, img := range d.Images {
		for y := 0; y < Side; y++ {
			for x := 0; x < Side; x++ {
				if x < 3 || x >= Side-3 || y < 3 || y >= Side-3 {
					if img[y*Side+x] != 0 {
						t.Fatalf("border pixel (%d,%d) active", x, y)
					}
				}
			}
		}
	}
}

func TestDatasetSparsityBand(t *testing.T) {
	d := testDataset(t, 1000)
	s := d.Sparsity()
	// The calibrated generator produces ~10% active pixels (MNIST is ~19%;
	// the difference is deliberate — see EXPERIMENTS.md).
	if s < 0.05 || s > 0.25 {
		t.Fatalf("sparsity %.3f outside sanity band", s)
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a := SyntheticMNIST(9, 50)
	b := SyntheticMNIST(9, 50)
	for i := range a.Images {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ")
		}
		for p := range a.Images[i] {
			if a.Images[i][p] != b.Images[i][p] {
				t.Fatal("pixels differ")
			}
		}
	}
	c := SyntheticMNIST(10, 50)
	same := true
	for i := range a.Images {
		for p := range a.Images[i] {
			if a.Images[i][p] != c.Images[i][p] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds give identical data")
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Different classes must have visibly different activation maps or the
	// model has nothing to learn.
	d := testDataset(t, 10)
	var diff float64
	for i := 0; i < Pixels; i++ {
		diff += math.Abs(d.ClassProb[0][i] - d.ClassProb[1][i])
	}
	if diff < 10 {
		t.Fatalf("class probability maps nearly identical (L1=%f)", diff)
	}
}

func TestForwardIsDistribution(t *testing.T) {
	d := testDataset(t, 10)
	m := NewModel()
	p := m.Forward(d.Images[0])
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("prob %f", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %f", sum)
	}
	// Zero model: uniform distribution.
	for _, v := range p {
		if math.Abs(v-0.1) > 1e-9 {
			t.Fatalf("zero model must be uniform, got %f", v)
		}
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	d := testDataset(t, 20)
	m := NewModel()
	// Non-trivial weights.
	for i := range m.W {
		m.W[i] = float32(math.Sin(float64(i))) * 0.1
	}
	g := NewGrad()
	batch := []int{0, 1, 2}
	loss := m.Gradient(d, batch, g)
	if loss <= 0 {
		t.Fatalf("loss %f", loss)
	}
	// Check ∂loss/∂W numerically at a handful of active coordinates.
	const eps = 1e-3
	checked := 0
	for i := 0; i < WeightDim && checked < 5; i++ {
		if g.W[i] == 0 {
			continue
		}
		orig := m.W[i]
		m.W[i] = orig + eps
		lossPlus := meanLoss(m, d, batch)
		m.W[i] = orig - eps
		lossMinus := meanLoss(m, d, batch)
		m.W[i] = orig
		numeric := (lossPlus - lossMinus) / (2 * eps)
		if math.Abs(numeric-float64(g.W[i])) > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("grad[%d]=%f numeric=%f", i, g.W[i], numeric)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no non-zero gradient coordinates to check")
	}
}

func meanLoss(m *Model, d *Dataset, batch []int) float64 {
	var loss float64
	for _, s := range batch {
		p := m.Forward(d.Images[s])
		loss += -math.Log(math.Max(p[d.Labels[s]], 1e-12))
	}
	return loss / float64(len(batch))
}

func TestGradientSparsityMatchesInput(t *testing.T) {
	d := testDataset(t, 10)
	m := NewModel()
	g := NewGrad()
	m.Gradient(d, []int{0}, g)
	x := d.Images[0]
	for i := 0; i < Pixels; i++ {
		rowZero := true
		for j := 0; j < Classes; j++ {
			if g.W[i*Classes+j] != 0 {
				rowZero = false
			}
		}
		if x[i] == 0 && !rowZero {
			t.Fatalf("inactive pixel %d has gradient", i)
		}
		if x[i] != 0 && rowZero {
			t.Fatalf("active pixel %d has zero gradient row", i)
		}
	}
}

func TestUpdatedIndices(t *testing.T) {
	g := NewGrad()
	g.W[5] = 1.0
	g.W[17] = 0.005
	g.W[100] = -0.5
	idx := g.UpdatedIndices(0, nil)
	if len(idx) != 3 {
		t.Fatalf("exact support: %v", idx)
	}
	idx = g.UpdatedIndices(0.1, idx) // threshold 0.1*1.0
	if len(idx) != 2 {
		t.Fatalf("thresholded support: %v", idx)
	}
}

func TestSGDReducesLoss(t *testing.T) {
	d := testDataset(t, 1500)
	cfg := Figure1aConfig(3)
	cfg.Steps = 120
	res, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Metrics[0].Loss
	last := res.Metrics[len(res.Metrics)-1].Loss
	if last >= first/2 {
		t.Fatalf("SGD loss %f -> %f: not learning", first, last)
	}
	if res.FinalAccuracy < 0.8 {
		t.Fatalf("accuracy %.2f", res.FinalAccuracy)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	d := testDataset(t, 1500)
	cfg := Figure1bConfig(3)
	cfg.Steps = 60
	res, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Metrics[0].Loss
	last := res.Metrics[len(res.Metrics)-1].Loss
	if last >= first/2 {
		t.Fatalf("Adam loss %f -> %f: not learning", first, last)
	}
}

func TestFigure1Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	d := testDataset(t, 4000)
	sgd, err := Train(d, Figure1aConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	adam, err := Train(d, Figure1bConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	so := MeanOverlap(sgd.Metrics)
	ao := MeanOverlap(adam.Metrics)
	// Paper: ~42.5% (SGD) and ~66.5% (Adam); allow a generous band.
	if so < 34 || so > 52 {
		t.Fatalf("SGD overlap %.1f%% outside [34, 52]", so)
	}
	if ao < 58 || ao > 75 {
		t.Fatalf("Adam overlap %.1f%% outside [58, 75]", ao)
	}
	if ao <= so {
		t.Fatalf("ordering violated: adam %.1f <= sgd %.1f", ao, so)
	}
}

func TestOverlapGrowsWithWorkers(t *testing.T) {
	d := testDataset(t, 2000)
	prev := -1.0
	for _, w := range []int{2, 3, 4, 5} {
		cfg := Figure1aConfig(7)
		cfg.Workers = w
		cfg.Steps = 60
		res, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := MeanOverlap(res.Metrics)
		if o <= prev {
			t.Fatalf("overlap not increasing: %d workers -> %.1f (prev %.1f)", w, o, prev)
		}
		prev = o
	}
}

func TestTrainValidation(t *testing.T) {
	d := testDataset(t, 10)
	if _, err := Train(d, TrainConfig{}); err == nil {
		t.Fatal("zero config must fail")
	}
	if _, err := Train(d, TrainConfig{Workers: 5, BatchSize: 100, Steps: 1}); err == nil {
		t.Fatal("dataset too small must fail")
	}
}

func TestTrainDeterministic(t *testing.T) {
	d := testDataset(t, 600)
	cfg := Figure1aConfig(5)
	cfg.Steps = 20
	a, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Metrics {
		if a.Metrics[i] != b.Metrics[i] {
			t.Fatalf("metrics diverge at step %d", i)
		}
	}
}

// Property: overlap and traffic reduction are valid percentages, and unique
// <= total always.
func TestMetricsInvariantsProperty(t *testing.T) {
	d := testDataset(t, 800)
	f := func(seed uint16, workersRaw, batchRaw uint8) bool {
		cfg := TrainConfig{
			Workers:   1 + int(workersRaw)%5,
			BatchSize: 1 + int(batchRaw)%20,
			Steps:     5,
			Optimizer: OptSGD,
			LR:        0.1,
			Seed:      uint64(seed),
		}
		res, err := Train(d, cfg)
		if err != nil {
			return false
		}
		for _, m := range res.Metrics {
			if m.OverlapPct < 0 || m.OverlapPct > 100 {
				return false
			}
			if m.TrafficReductionPct < 0 || m.TrafficReductionPct > 100 {
				return false
			}
			if m.UniqueUpdates > m.TotalUpdates {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAdamStateEvolves(t *testing.T) {
	a := NewAdam(0.01)
	m := NewModel()
	g := NewGrad()
	g.W[0] = 1
	a.Step(m, g)
	w1 := m.W[0]
	if w1 >= 0 {
		t.Fatalf("adam step direction: %f", w1)
	}
	a.Step(m, g)
	if m.W[0] >= w1 {
		t.Fatal("adam second step did not move")
	}
	if a.Name() != "adam" || (&SGD{}).Name() != "sgd" {
		t.Fatal("names")
	}
}

// refForward is the dense reference Forward: every pixel scanned, inactive
// ones skipped. The kernel must match it bit for bit.
func refForward(m *Model, x []float32) [Classes]float64 {
	var logits [Classes]float64
	for j := 0; j < Classes; j++ {
		logits[j] = float64(m.B[j])
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		base := i * Classes
		for j := 0; j < Classes; j++ {
			logits[j] += float64(xi) * float64(m.W[base+j])
		}
	}
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	var probs [Classes]float64
	for j := range logits {
		probs[j] = math.Exp(logits[j] - maxL)
		sum += probs[j]
	}
	for j := range probs {
		probs[j] /= sum
	}
	return probs
}

// refGradient is the dense reference Gradient.
func refGradient(m *Model, d *Dataset, batch []int, g *Grad) float64 {
	g.Reset()
	if len(batch) == 0 {
		return 0
	}
	var loss float64
	inv := 1.0 / float64(len(batch))
	for _, s := range batch {
		x := d.Images[s]
		label := d.Labels[s]
		probs := refForward(m, x)
		loss += -math.Log(math.Max(probs[label], 1e-12))
		var delta [Classes]float64
		for j := 0; j < Classes; j++ {
			delta[j] = probs[j]
			if j == label {
				delta[j] -= 1
			}
		}
		for i, xi := range x {
			if xi == 0 {
				continue
			}
			base := i * Classes
			for j := 0; j < Classes; j++ {
				g.W[base+j] += float32(float64(xi) * delta[j] * inv)
			}
		}
		for j := 0; j < Classes; j++ {
			g.B[j] += float32(delta[j] * inv)
		}
	}
	return loss * inv
}

// randomModel returns a model after a few Adam steps on random sparse
// gradients, so its weights are non-zero and of both signs.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	opt := NewAdam(0.05)
	g := NewGrad()
	for step := 1 + rng.Intn(5); step > 0; step-- {
		g.Reset()
		for k := 0; k < WeightDim/2; k++ {
			g.W[rng.Intn(WeightDim)] = float32(rng.NormFloat64())
		}
		for j := range g.B {
			g.B[j] = float32(rng.NormFloat64())
		}
		opt.Step(m, g)
	}
	return m
}

// edgeImages returns the images the kernel's sparse walk must treat as the
// dense scan does: all-zero, all-active, signed zeros among active pixels,
// and a short image.
func edgeImages(rng *rand.Rand) [][]float32 {
	zero := make([]float32, Pixels)
	full := make([]float32, Pixels)
	negZero := make([]float32, Pixels)
	short := make([]float32, Pixels/2+3)
	negz := float32(math.Copysign(0, -1))
	for i := range full {
		full[i] = 1 - rng.Float32()
		if i%3 == 0 {
			negZero[i] = negz
		} else if i%3 == 1 {
			negZero[i] = full[i]
		}
	}
	for i := range short {
		if rng.Intn(4) == 0 {
			short[i] = rng.Float32()
		}
	}
	return [][]float32{zero, full, negZero, short}
}

func sameProbs(a, b [Classes]float64) bool {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

func sameFloat32s(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// Property: the sparse kernel's Forward is bit-identical to the dense
// reference on random models, for dataset images and edge images alike,
// including images longer than Pixels whose tail is zero.
func TestForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := testDataset(t, 50)
	tail := append(append([]float32(nil), d.Images[0]...), 0, 0, 0)
	images := append(append(edgeImages(rng), tail), d.Images...)
	for trial := 0; trial < 20; trial++ {
		m := randomModel(rng)
		if trial == 0 {
			m = NewModel()
		}
		for k, x := range images {
			if got, want := m.Forward(x), refForward(m, x); !sameProbs(got, want) {
				t.Fatalf("trial %d image %d: Forward %v, reference %v", trial, k, got, want)
			}
		}
	}
}

// Property: the sparse kernel's Gradient returns the reference's loss,
// g.W and g.B bit for bit, on random models and random batches (with
// duplicate samples) over dataset and edge images.
func TestGradientMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := testDataset(t, 60)
	for _, x := range edgeImages(rng) {
		d.Images = append(d.Images, x)
		d.Labels = append(d.Labels, rng.Intn(Classes))
	}
	var batches [][]int
	for e := d.Len() - 4; e < d.Len(); e++ {
		batches = append(batches, []int{e}, []int{e, 0, e})
	}
	for len(batches) < 40 {
		batch := make([]int, 1+rng.Intn(30))
		for i := range batch {
			batch[i] = rng.Intn(d.Len())
		}
		batches = append(batches, batch)
	}
	got, want := NewGrad(), NewGrad()
	for trial, batch := range batches {
		m := randomModel(rng)
		gl, wl := m.Gradient(d, batch, got), refGradient(m, d, batch, want)
		if math.Float64bits(gl) != math.Float64bits(wl) {
			t.Fatalf("trial %d: loss %v, reference %v", trial, gl, wl)
		}
		if i := sameFloat32s(got.W, want.W); i >= 0 {
			t.Fatalf("trial %d: g.W[%d] = %v, reference %v", trial, i, got.W[i], want.W[i])
		}
		if i := sameFloat32s(got.B, want.B); i >= 0 {
			t.Fatalf("trial %d: g.B[%d] = %v, reference %v", trial, i, got.B[i], want.B[i])
		}
	}
}

// The kernel allocates nothing: its active-pixel list lives on the stack.
func TestGradientZeroAlloc(t *testing.T) {
	d := testDataset(t, 200)
	m := randomModel(rand.New(rand.NewSource(3)))
	g := NewGrad()
	batch := make([]int, 100)
	for i := range batch {
		batch[i] = i
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Gradient(d, batch, g)
		m.Forward(d.Images[0])
	})
	if allocs != 0 {
		t.Fatalf("Gradient+Forward: %v allocs/op, want 0", allocs)
	}
}
