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

// Step implements Optimizer. The loop is divider-bound (three divisions
// and a square root per parameter), so it skips the m/bc1 division once
// bc1 is exactly 1 (x/1 is x; for β1 = 0.9 from step 356 on) and zeroes
// each gradient as it reads it. TestAdamMatchesReference pins it bit for
// bit to the plain form.
func (a *Adam) Step(params []*Param) {
	a.t++
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Eps
	c1, c2 := 1-b1, 1-b2
	bc1 := 1 - math.Pow(b1, float64(a.t))
	bc2 := 1 - math.Pow(b2, float64(a.t))
	correct1 := bc1 != 1
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
		md, vd, wd = md[:len(gd)], vd[:len(gd)], wd[:len(gd)]
		for i, g := range gd {
			mi := b1*md[i] + c1*g
			vi := b2*vd[i] + c2*g*g
			md[i], vd[i], gd[i] = mi, vi, 0
			if correct1 {
				mi /= bc1
			}
			wd[i] -= lr * mi / (math.Sqrt(vi/bc2) + eps)
		}
	}
}
