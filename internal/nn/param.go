package nn

import (
	"math"

	"predstream/internal/mat"
)

// Param is a learnable weight tensor paired with its gradient accumulator.
// Optimizers mutate W in place and zero Grad after each step.
type Param struct {
	Name string
	W    *mat.Dense
	Grad *mat.Dense
}

// newParam allocates a parameter and matching zero gradient.
func newParam(name string, w *mat.Dense) *Param {
	r, c := w.Dims()
	return &Param{Name: name, W: w, Grad: mat.New(r, c)}
}

// shareWeights returns a Param that aliases p's weight tensor but owns a
// fresh zero gradient. Worker replicas read the shared weights concurrently
// and accumulate into their private Grad; only the main copy's weights are
// ever stepped by an optimizer.
func (p *Param) shareWeights() *Param {
	r, c := p.W.Dims()
	return &Param{Name: p.Name, W: p.W, Grad: mat.New(r, c)}
}

// GlobalNorm returns the L2 norm of all gradients in params taken together,
// the quantity gradient clipping bounds.
func GlobalNorm(params []*Param) float64 {
	var s float64
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradients scales all gradients so their global norm does not exceed
// maxNorm. A non-positive maxNorm disables clipping. It returns the norm
// observed before clipping.
func ClipGradients(params []*Param, maxNorm float64) float64 {
	norm := GlobalNorm(params)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.ScaleInPlace(scale)
	}
	return norm
}
