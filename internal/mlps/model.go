package mlps

import (
	"fmt"
	"math"
)

// Model is the paper's "Soft-Max Neural Network": multinomial logistic
// regression, a single dense W (784×10) plus bias. W is "the tensor" whose
// update overlap Figure 1 measures.
type Model struct {
	W []float32 // WeightDim, row-major: W[pixel*Classes + class]
	B []float32 // Classes
}

// NewModel returns a zero-initialized model (softmax regression is convex;
// zero init is standard).
func NewModel() *Model {
	return &Model{W: make([]float32, WeightDim), B: make([]float32, Classes)}
}

// Forward computes class probabilities for one image. An image may be
// shorter than Pixels; any pixel past Pixels must be zero.
func (m *Model) Forward(x []float32) [Classes]float64 {
	var idx [Pixels]uint16
	return m.forward(x, activePixels(x, &idx))
}

// activePixels compacts the indices of x's non-zero pixels, in pixel order,
// into idx and returns them. The loop is branch-free: every index is
// written and the cursor advances only past non-zero pixels (-0 counts as
// zero, NaN as active). Pixels past Pixels must be zero; a non-zero one
// has no weight row and panics, as indexing W would.
func activePixels(x []float32, idx *[Pixels]uint16) []uint16 {
	if len(x) > Pixels {
		for i, xi := range x[Pixels:] {
			if xi != 0 {
				panic(fmt.Sprintf("mlps: non-zero pixel %d past the %d-pixel image", Pixels+i, Pixels))
			}
		}
		x = x[:Pixels]
	}
	n := 0
	for i, xi := range x {
		idx[n] = uint16(i)
		step := 0
		if xi != 0 {
			step = 1
		}
		n += step
	}
	return idx[:n]
}

// forward is Forward over a precomputed active-pixel list. Each logit is
// accumulated as logit_j += float64(x_i)*float64(W[i][j]) in pixel order,
// starting from the bias, so it equals the dense scan bit for bit.
func (m *Model) forward(x []float32, active []uint16) [Classes]float64 {
	b := (*[Classes]float32)(m.B)
	l0, l1, l2, l3, l4 := float64(b[0]), float64(b[1]), float64(b[2]), float64(b[3]), float64(b[4])
	l5, l6, l7, l8, l9 := float64(b[5]), float64(b[6]), float64(b[7]), float64(b[8]), float64(b[9])
	W := m.W
	for _, i := range active {
		xi := float64(x[i])
		w := (*[Classes]float32)(W[int(i)*Classes:])
		l0 += xi * float64(w[0])
		l1 += xi * float64(w[1])
		l2 += xi * float64(w[2])
		l3 += xi * float64(w[3])
		l4 += xi * float64(w[4])
		l5 += xi * float64(w[5])
		l6 += xi * float64(w[6])
		l7 += xi * float64(w[7])
		l8 += xi * float64(w[8])
		l9 += xi * float64(w[9])
	}
	logits := [Classes]float64{l0, l1, l2, l3, l4, l5, l6, l7, l8, l9}
	// Numerically stable softmax.
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

// Predict returns the argmax class for one image.
func (m *Model) Predict(x []float32) int {
	p := m.Forward(x)
	best := 0
	for j := 1; j < Classes; j++ {
		if p[j] > p[best] {
			best = j
		}
	}
	return best
}

// Grad is one worker's gradient contribution: dense storage, but the
// sparsity structure (zero rows for inactive pixels) is preserved exactly.
type Grad struct {
	W []float32
	B []float32
}

// NewGrad allocates a zero gradient.
func NewGrad() *Grad {
	return &Grad{W: make([]float32, WeightDim), B: make([]float32, Classes)}
}

// Reset zeroes the gradient in place.
func (g *Grad) Reset() {
	for i := range g.W {
		g.W[i] = 0
	}
	for i := range g.B {
		g.B[i] = 0
	}
}

// Accumulate adds other into g (the parameter server's vector addition —
// the aggregation function the paper offloads to the network).
func (g *Grad) Accumulate(other *Grad) {
	for i, v := range other.W {
		g.W[i] += v
	}
	for i, v := range other.B {
		g.B[i] += v
	}
}

// Scale multiplies the gradient by f.
func (g *Grad) Scale(f float32) {
	for i := range g.W {
		g.W[i] *= f
	}
	for i := range g.B {
		g.B[i] *= f
	}
}

// Gradient computes the mean cross-entropy gradient over the given sample
// indices, writing into g (which it resets first), and returns the mean
// loss. dW[i][j] = x[i]*(p[j]-y[j]): rows for inactive pixels stay exactly
// zero, which is what makes the update sparse on the wire.
//
// Every element is accumulated as row_j += float32(float64(x_i)*delta_j*inv)
// in batch order, exactly as a dense scan over all pixels would. One
// active-pixel list per sample serves both the forward and the backward
// pass, and the call allocates nothing.
func (m *Model) Gradient(d *Dataset, batch []int, g *Grad) float64 {
	g.Reset()
	if len(batch) == 0 {
		return 0
	}
	var loss float64
	inv := 1.0 / float64(len(batch))
	var idx [Pixels]uint16
	gb := (*[Classes]float32)(g.B)
	gw := g.W
	for _, s := range batch {
		x := d.Images[s]
		label := d.Labels[s]
		active := activePixels(x, &idx)
		probs := m.forward(x, active)
		loss += -math.Log(math.Max(probs[label], 1e-12))
		delta := probs
		delta[label] -= 1
		d0, d1, d2, d3, d4 := delta[0], delta[1], delta[2], delta[3], delta[4]
		d5, d6, d7, d8, d9 := delta[5], delta[6], delta[7], delta[8], delta[9]
		for _, i := range active {
			xi := float64(x[i])
			row := (*[Classes]float32)(gw[int(i)*Classes:])
			row[0] += float32(xi * d0 * inv)
			row[1] += float32(xi * d1 * inv)
			row[2] += float32(xi * d2 * inv)
			row[3] += float32(xi * d3 * inv)
			row[4] += float32(xi * d4 * inv)
			row[5] += float32(xi * d5 * inv)
			row[6] += float32(xi * d6 * inv)
			row[7] += float32(xi * d7 * inv)
			row[8] += float32(xi * d8 * inv)
			row[9] += float32(xi * d9 * inv)
		}
		for j := range gb {
			gb[j] += float32(delta[j] * inv)
		}
	}
	return loss * inv
}

// UpdatedIndices returns the W-tensor indices this gradient would transmit
// to the parameter server: elements whose magnitude exceeds relThreshold ×
// max|g.W|. A zero threshold returns the exact non-zero support. This is
// the "tensor elements updated by a worker" set of Figure 1.
func (g *Grad) UpdatedIndices(relThreshold float64, out []int) []int {
	out = out[:0]
	if relThreshold <= 0 {
		for i, v := range g.W {
			if v != 0 {
				out = append(out, i)
			}
		}
		return out
	}
	var maxAbs float64
	for _, v := range g.W {
		a := math.Abs(float64(v))
		if a > maxAbs {
			maxAbs = a
		}
	}
	thr := relThreshold * maxAbs
	for i, v := range g.W {
		if math.Abs(float64(v)) > thr {
			out = append(out, i)
		}
	}
	return out
}
