package nn

import (
	"fmt"
	"math/rand"

	"predstream/internal/mat"
)

// Dense is a fully connected layer y = act(Wx + b). It caches its last
// input and output for the backward pass, so a layer instance processes one
// example at a time (the training loops here are purely stochastic). All
// per-example buffers are preallocated; Forward and Backward return slices
// that alias them and stay valid until the next call.
type Dense struct {
	In, Out int
	Act     Activation

	w *Param // Out×In
	b *Param // Out×1

	lastIn  []float64
	lastOut []float64
	delta   []float64
	dx      []float64
	seen    bool
}

// NewDense builds a Dense layer with Xavier-initialized weights (He for
// ReLU) and zero biases.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense dims %d->%d", in, out))
	}
	w := mat.New(out, in)
	if act.Name == "relu" {
		w.RandHe(rng)
	} else {
		w.RandXavier(rng)
	}
	d := &Dense{
		In:  in,
		Out: out,
		Act: act,
		w:   newParam("dense.w", w),
		b:   newParam("dense.b", mat.New(out, 1)),
	}
	d.initWorkspace()
	return d
}

func (d *Dense) initWorkspace() {
	d.lastIn = make([]float64, d.In)
	d.lastOut = make([]float64, d.Out)
	d.delta = make([]float64, d.Out)
	d.dx = make([]float64, d.In)
}

// Replicate returns a copy sharing this layer's weight matrices but owning
// its own gradient accumulators and workspace, for concurrent mini-batch
// workers.
func (d *Dense) Replicate() *Dense {
	r := &Dense{
		In:  d.In,
		Out: d.Out,
		Act: d.Act,
		w:   d.w.shareWeights(),
		b:   d.b.shareWeights(),
	}
	r.initWorkspace()
	return r
}

// Forward computes the layer output for x, caching what Backward needs. The
// returned slice aliases the layer workspace.
//
//dsps:hotpath
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense forward got %d inputs, want %d", len(x), d.In))
	}
	copy(d.lastIn, x)
	out := d.w.W.MulVecTo(d.lastOut, d.lastIn)
	bd := d.b.W.Data()
	for i, z := range out {
		out[i] = d.Act.F(z + bd[i])
	}
	d.seen = true
	return out
}

// Backward accumulates parameter gradients for the cached example given
// dOut = ∂L/∂y and returns ∂L/∂x (workspace-backed).
//
//dsps:hotpath
func (d *Dense) Backward(dOut []float64) []float64 {
	if len(dOut) != d.Out {
		panic(fmt.Sprintf("nn: dense backward got %d grads, want %d", len(dOut), d.Out))
	}
	if !d.seen {
		panic("nn: dense Backward before Forward")
	}
	// δ = dOut ∘ act'(y)
	delta := d.delta
	for i, g := range dOut {
		delta[i] = g * d.Act.Deriv(d.lastOut[i])
	}
	// dW += δ xᵀ ; db += δ ; dx = Wᵀ δ
	dx := d.dx
	zeroVec(dx)
	wGrad := d.w.Grad.Data()
	wData := d.w.W.Data()
	bGrad := d.b.Grad.Data()
	for i, dv := range delta {
		if dv == 0 {
			continue
		}
		gRow := wGrad[i*d.In : (i+1)*d.In]
		for j, xv := range d.lastIn {
			gRow[j] += dv * xv
		}
		bGrad[i] += dv
		wRow := wData[i*d.In : (i+1)*d.In]
		for j, wv := range wRow {
			dx[j] += wv * dv
		}
	}
	return dx
}

// Params returns the layer's learnable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Weights exposes the weight matrix and bias for serialization.
func (d *Dense) Weights() (w, b *mat.Dense) { return d.w.W, d.b.W }

// SetWeights replaces the weight matrix and bias, validating dimensions.
func (d *Dense) SetWeights(w, b *mat.Dense) error {
	if err := checkDenseShapes(d.In, d.Out, w, b); err != nil {
		return err
	}
	d.w.W = w.Copy()
	d.b.W = b.Copy()
	d.w.Grad = mat.New(d.Out, d.In)
	d.b.Grad = mat.New(d.Out, 1)
	return nil
}

// checkDenseShapes reports whether w and b hold one in→out dense layer's
// weight matrix and bias.
func checkDenseShapes(in, out int, w, b *mat.Dense) error {
	if r, c := w.Dims(); r != out || c != in {
		return fmt.Errorf("nn: dense weights %dx%d, want %dx%d", r, c, out, in)
	}
	if r, c := b.Dims(); r != out || c != 1 {
		return fmt.Errorf("nn: dense bias %dx%d, want %dx1", r, c, out)
	}
	return nil
}
