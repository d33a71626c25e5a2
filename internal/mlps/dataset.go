// Package mlps reproduces the paper's machine-learning analysis (Figures
// 1(a) and 1(b)): a Soft-Max neural network trained with mini-batch SGD
// (batch 3) and Adam (batch 100) on MNIST across five workers and one
// parameter server, instrumented to measure the overlap of tensor updates
// across workers — the quantity that upper-bounds in-network aggregation's
// traffic reduction for ML workloads.
//
// MNIST itself is a data gate (the module is offline), so the package
// generates a synthetic handwritten-digit substitute calibrated to the
// properties the overlap metric actually depends on: 28×28 images, 10
// classes, a dead border, centre-heavy pixel activation, class-conditional
// stroke structure, and sparse images (~10% of pixels active, against
// MNIST's ~19%). EXPERIMENTS.md's "Calibration notes" give the reasons.
package mlps

import (
	"math"
	"math/rand"

	"github.com/daiet/daiet/internal/hashing"
)

// Image geometry.
const (
	Side      = 28
	Pixels    = Side * Side // 784
	Classes   = 10
	WeightDim = Pixels * Classes // the W tensor the workers update
)

// Dataset is a set of labelled images. Pixel values are in [0, 1]; the
// sparsity structure (which pixels are non-zero) is what drives Figure 1.
type Dataset struct {
	Images [][]float32
	Labels []int
	// ClassProb[c][i] is the probability pixel i is active in an image of
	// class c (exposed for tests and calibration).
	ClassProb [][]float64
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Images) }

// strokeSegment is one straight pen stroke in the 28x28 grid.
type strokeSegment struct {
	x0, y0, x1, y1 float64
}

// classStrokes samples a class's pen strokes: a handful of segments with
// endpoints in the writable area. Distinct classes get geometrically
// distinct (though intersecting) strokes, which is what keeps the SGD
// small-batch update overlap in the paper's 34-50% band: a mini-batch of 3
// activates only a few classes' strokes, so workers mostly touch disjoint
// rows of W.
func classStrokes(rng *rand.Rand, n int) []strokeSegment {
	out := make([]strokeSegment, 0, n)
	for len(out) < n {
		s := strokeSegment{
			x0: 4 + rng.Float64()*19,
			y0: 4 + rng.Float64()*19,
			x1: 4 + rng.Float64()*19,
			y1: 4 + rng.Float64()*19,
		}
		dx, dy := s.x1-s.x0, s.y1-s.y0
		if dx*dx+dy*dy < 64 { // insist on strokes at least 8px long
			continue
		}
		out = append(out, s)
	}
	return out
}

// SyntheticMNIST generates n samples with MNIST-like activation structure.
// Generation is deterministic per seed.
func SyntheticMNIST(seed uint64, n int) *Dataset {
	rng := rand.New(rand.NewSource(int64(hashing.Mix64(seed))))
	d := &Dataset{ClassProb: make([][]float64, Classes)}

	// Build per-class activation probabilities.
	for c := 0; c < Classes; c++ {
		prob := make([]float64, Pixels)
		classRng := rand.New(rand.NewSource(int64(hashing.Mix64(seed ^ uint64(c)<<32))))
		strokes := classStrokes(classRng, 5)
		for y := 0; y < Side; y++ {
			for x := 0; x < Side; x++ {
				i := y*Side + x
				// Dead border, like MNIST's empty frame.
				if x < 3 || x >= Side-3 || y < 3 || y >= Side-3 {
					prob[i] = 0
					continue
				}
				// Distance to the nearest selected stroke.
				minD := math.Inf(1)
				for _, s := range strokes {
					if dd := distToSegment(float64(x), float64(y), s); dd < minD {
						minD = dd
					}
				}
				switch {
				case minD <= 0.8:
					prob[i] = 0.60 // on-stroke: usually inked
				case minD <= 1.8:
					prob[i] = 0.18 // stroke halo: jittered ink
				case minD <= 3.2:
					prob[i] = 0.03 // faint smudge
				default:
					prob[i] = 0.005 // rare noise speckle
				}
			}
		}
		d.ClassProb[c] = prob
	}

	for s := 0; s < n; s++ {
		c := rng.Intn(Classes)
		img := make([]float32, Pixels)
		prob := d.ClassProb[c]
		for i := 0; i < Pixels; i++ {
			if prob[i] > 0 && rng.Float64() < prob[i] {
				img[i] = float32(0.35 + 0.65*rng.Float64())
			}
		}
		d.Images = append(d.Images, img)
		d.Labels = append(d.Labels, c)
	}
	return d
}

// distToSegment is the Euclidean distance from point (px, py) to segment s.
func distToSegment(px, py float64, s strokeSegment) float64 {
	dx, dy := s.x1-s.x0, s.y1-s.y0
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return math.Hypot(px-s.x0, py-s.y0)
	}
	t := ((px-s.x0)*dx + (py-s.y0)*dy) / l2
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return math.Hypot(px-(s.x0+t*dx), py-(s.y0+t*dy))
}

// Sparsity returns the mean fraction of active pixels per image.
func (d *Dataset) Sparsity() float64 {
	if d.Len() == 0 {
		return 0
	}
	var total int
	for _, img := range d.Images {
		for _, v := range img {
			if v != 0 {
				total++
			}
		}
	}
	return float64(total) / float64(d.Len()*Pixels)
}
