package mlps

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/daiet/daiet/internal/runner"
)

// trainFingerprint hashes every StepMetrics field, every W and B bit and
// FinalAccuracy of a training run.
func trainFingerprint(res *TrainResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, m := range res.Metrics {
		put(uint64(m.Step))
		put(math.Float64bits(m.Loss))
		put(math.Float64bits(m.OverlapPct))
		put(math.Float64bits(m.TrafficReductionPct))
		put(uint64(m.TotalUpdates))
		put(uint64(m.UniqueUpdates))
	}
	for _, w := range res.Model.W {
		put(uint64(math.Float32bits(w)))
	}
	for _, b := range res.Model.B {
		put(uint64(math.Float32bits(b)))
	}
	put(math.Float64bits(res.FinalAccuracy))
	return h.Sum64()
}

// The paper configurations train to the same bits as the dense reference
// kernel with sequential workers did; the pins were recorded from that
// implementation.
func TestTrainFigure1Fingerprints(t *testing.T) {
	pins := []struct {
		name string
		cfg  func(seed uint64) TrainConfig
		want [3]uint64 // seeds 1-3
	}{
		{"fig1a", Figure1aConfig, [3]uint64{0x2ab8f0d42ee037e7, 0x9f09da51a81afb2e, 0xf0a0f2e129689797}},
		{"fig1b", Figure1bConfig, [3]uint64{0xb2ca68b90cadfa50, 0x519e677ad22432e6, 0xd1e4eea2dff3dc0d}},
	}
	for _, p := range pins {
		for i, want := range p.want {
			seed := uint64(i + 1)
			res, err := Train(SyntheticMNIST(seed, 1000), p.cfg(seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := trainFingerprint(res); got != want {
				t.Errorf("%s seed %d: fingerprint %#016x, want %#016x", p.name, seed, got, want)
			}
		}
	}
}

// Train is bit-identical at any GOMAXPROCS, whether a step's workers share
// one helper goroutine or spread over several. The pins were recorded with
// sequential workers.
func TestTrainGOMAXPROCSInvariant(t *testing.T) {
	pins := []struct {
		workers   int
		sgd, adam uint64
	}{
		{1, 0x39b248c82bbe5854, 0x8448386d135ece5d},
		{3, 0x9289e83f341baa01, 0xdd95c88731b5c6b2},
		{5, 0xe1cf1df1c807a537, 0x55abcbc3d36631ec},
		{8, 0xd035c4c94fbb0dd6, 0xf8693d7ae851d2f5},
	}
	d := SyntheticMNIST(4, 400)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, p := range pins {
			for _, o := range []struct {
				opt  OptimizerKind
				want uint64
			}{{OptSGD, p.sgd}, {OptAdam, p.adam}} {
				opt, want := o.opt, o.want
				cfg := TrainConfig{Workers: p.workers, BatchSize: 7, Steps: 15,
					Optimizer: opt, LR: 0.05, Seed: 11, RelThreshold: 0.05}
				res, err := Train(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := trainFingerprint(res); got != want {
					t.Errorf("GOMAXPROCS %d, %d workers, %v: fingerprint %#016x, want %#016x",
						procs, p.workers, opt, got, want)
				}
			}
		}
	}
}

// A worker step that panics (here on a label out of range) is re-raised on
// Train's goroutine, so runner.Map reports it as the trial's error instead
// of the process dying on a helper goroutine.
func TestTrainPanicBecomesRunnerError(t *testing.T) {
	d := SyntheticMNIST(1, 60)
	for i := range d.Labels {
		d.Labels[i] = Classes
	}
	cfg := TrainConfig{Workers: 4, BatchSize: 3, Steps: 2, Optimizer: OptSGD, LR: 0.1, Seed: 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := runner.Map(2, 2, func(int) (*TrainResult, error) { return Train(d, cfg) })
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("GOMAXPROCS %d: runner.Map error %v, want a recovered panic", procs, err)
		}
	}
}

// With more than 255 workers, elements updated by many workers are counted
// in full: the step metrics equal a direct count over each worker's own
// gradient.
func TestOverlapCountsBeyond255Workers(t *testing.T) {
	const workers = 300
	// One sample per worker, so worker w always draws sample w, and a
	// pixel every image has, so some elements see all 300 workers.
	d := SyntheticMNIST(2, workers)
	common := (Side/2)*Side + Side/2
	for _, x := range d.Images {
		x[common] = 1
	}
	cfg := TrainConfig{Workers: workers, BatchSize: 1, Steps: 1, Optimizer: OptSGD, LR: 0.1, Seed: 1}
	res, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	counts := make([]int, WeightDim)
	m, g := NewModel(), NewGrad()
	var idx []int
	for w := 0; w < workers; w++ {
		m.Gradient(d, []int{w}, g)
		idx = g.UpdatedIndices(0, idx)
		for _, i := range idx {
			counts[i]++
		}
	}
	var once, multi, total, peak int
	for _, c := range counts {
		if c > 0 {
			once++
			total += c
		}
		if c >= 2 {
			multi++
		}
		peak = max(peak, c)
	}
	if peak <= 255 {
		t.Fatalf("peak count %d: test does not exceed 255 workers on any element", peak)
	}
	got := res.Metrics[0]
	want := StepMetrics{
		Loss:                got.Loss,
		OverlapPct:          100 * float64(multi) / float64(once),
		TrafficReductionPct: 100 * (1 - float64(once)/float64(total)),
		TotalUpdates:        total,
		UniqueUpdates:       once,
	}
	if got != want {
		t.Fatalf("step metrics %+v, direct count %+v", got, want)
	}
}
