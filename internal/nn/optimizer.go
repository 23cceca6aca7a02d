package nn

import (
	"math"

	"predstream/internal/mat"
)

// Optimizer updates parameters from their accumulated gradients and zeroes
// the gradients. Implementations keep per-parameter state keyed by the
// *Param pointer, so a given optimizer instance must always be stepped with
// the same parameter set.
type Optimizer interface {
	Step(params []*Param)
	Name() string
}

// Adam is the Adam optimizer (Kingma & Ba 2015) with bias correction, the
// optimizer the paper's DRNN training uses.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*mat.Dense
	v map[*Param]*mat.Dense
}

// NewAdam returns an Adam optimizer with standard defaults for any field
// left at zero (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*Param]*mat.Dense),
		v:     make(map[*Param]*mat.Dense),
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			r, c := p.W.Dims()
			m = mat.New(r, c)
			a.m[p] = m
			a.v[p] = mat.New(r, c)
		}
		v := a.v[p]
		md, vd, gd, wd := m.Data(), v.Data(), p.Grad.Data(), p.W.Data()
		for i := range gd {
			g := gd[i]
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*g
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*g*g
			mHat := md[i] / bc1
			vHat := vd[i] / bc2
			wd[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.ZeroGrad()
	}
}
