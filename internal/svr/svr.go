// Package svr implements ε-support-vector regression, the paper's second
// prediction baseline. The dual problem is solved by exact coordinate
// descent on the bias-free formulation (the bias is absorbed by augmenting
// the kernel with a constant term, the standard no-bias trick), which gives
// the closed-form soft-threshold update
//
//	βᵢ ← clip( soft(rᵢ, ε) / Kᵢᵢ, −C, C )
//
// per coordinate and converges monotonically — the same family of working-
// set solvers as SMO, specialized to one coordinate.
package svr

import (
	"fmt"
	"math"

	"predstream/internal/mat"
)

// Kernel computes a positive-definite similarity between feature vectors.
type Kernel interface {
	Eval(a, b []float64) float64
	Name() string
}

// RBF is the Gaussian kernel exp(-γ‖a-b‖²), the kernel the paper's SVR
// baseline uses.
type RBF struct{ Gamma float64 }

// Name implements Kernel.
func (k RBF) Name() string { return "rbf" }

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Exp(-k.Gamma * d)
}

// Linear is the inner-product kernel.
type Linear struct{}

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 { return mat.Dot(a, b) }

// SVR is an ε-SVR model. Configure before FitXY; zero-value fields get
// standard defaults (C=1, Eps=0.1, RBF γ=1/dim, 300 epochs, tol 1e-4).
type SVR struct {
	C       float64
	Eps     float64
	Kernel  Kernel
	MaxIter int     // full coordinate sweeps
	Tol     float64 // stop when the largest coefficient change in a sweep is below this

	x     [][]float64
	beta  []float64
	iters int
}

func (s *SVR) defaults(dim int) {
	if s.C <= 0 {
		s.C = 1
	}
	if s.Eps <= 0 {
		s.Eps = 0.1
	}
	if s.Kernel == nil {
		s.Kernel = RBF{Gamma: 1 / float64(dim)}
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 300
	}
	if s.Tol <= 0 {
		s.Tol = 1e-4
	}
}

// FitXY trains the model on rows of x with targets y.
func (s *SVR) FitXY(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return fmt.Errorf("svr: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("svr: %d inputs for %d targets", len(x), len(y))
	}
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return fmt.Errorf("svr: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	s.defaults(dim)

	n := len(x)
	// Precompute the augmented kernel matrix K + 1 (the +1 absorbs the
	// bias).
	k := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := s.Kernel.Eval(x[i], x[j]) + 1
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}

	beta := make([]float64, n)
	f := make([]float64, n) // f[i] = Σ_k beta[k]·K[i][k]
	s.iters = 0
	for sweep := 0; sweep < s.MaxIter; sweep++ {
		s.iters = sweep + 1
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			kii := k.At(i, i)
			if kii <= 0 {
				continue
			}
			// Residual excluding i's own contribution.
			r := y[i] - (f[i] - beta[i]*kii)
			var target float64
			switch {
			case r > s.Eps:
				target = (r - s.Eps) / kii
			case r < -s.Eps:
				target = (r + s.Eps) / kii
			}
			if target > s.C {
				target = s.C
			} else if target < -s.C {
				target = -s.C
			}
			delta := target - beta[i]
			if delta == 0 {
				continue
			}
			beta[i] = target
			row := k.Data()[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				f[j] += delta * row[j]
			}
			if d := math.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < s.Tol {
			break
		}
	}

	// Keep only support vectors for prediction.
	s.x = s.x[:0]
	s.beta = s.beta[:0]
	for i, b := range beta {
		if b != 0 {
			s.x = append(s.x, mat.CloneVec(x[i]))
			s.beta = append(s.beta, b)
		}
	}
	return nil
}

// PredictXY returns the model output for one feature vector.
func (s *SVR) PredictXY(x []float64) float64 {
	var out float64
	for i, sv := range s.x {
		out += s.beta[i] * (s.Kernel.Eval(sv, x) + 1)
	}
	return out
}
