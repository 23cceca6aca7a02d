package stats

import (
	"fmt"
	"math"
)

// Diff returns the d-th order difference of xs: each pass replaces the
// series with consecutive deltas, shortening it by one. It returns an error
// if the series is too short to difference d times.
func Diff(xs []float64, d int) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("stats: negative differencing order %d", d)
	}
	out := make([]float64, len(xs))
	copy(out, xs)
	for k := 0; k < d; k++ {
		if len(out) < 2 {
			return nil, fmt.Errorf("stats: series of %d too short for d=%d", len(xs), d)
		}
		next := make([]float64, len(out)-1)
		for i := 1; i < len(out); i++ {
			next[i-1] = out[i] - out[i-1]
		}
		out = next
	}
	return out, nil
}

// Undiff inverts a single differencing pass: given the last observed level
// and a forecast of differences, it returns the forecast of levels.
func Undiff(lastLevel float64, diffs []float64) []float64 {
	out := make([]float64, len(diffs))
	level := lastLevel
	for i, d := range diffs {
		level += d
		out[i] = level
	}
	return out
}

// StandardScaler is a z-score scaler fit on a training series and applied
// to further data, as the DRNN preprocessing requires.
type StandardScaler struct {
	Mean, Std float64
}

// FitStandard fits a StandardScaler on xs. A zero-variance series gets
// Std=1 so Transform is the identity shift.
func FitStandard(xs []float64) StandardScaler {
	s := StandardScaler{Mean: Mean(xs), Std: StdDev(xs)}
	if s.Std == 0 {
		s.Std = 1
	}
	return s
}

// Transform maps x into z-score space.
func (s StandardScaler) Transform(x float64) float64 { return (x - s.Mean) / s.Std }

// Inverse maps a z-score back to the original space.
func (s StandardScaler) Inverse(z float64) float64 { return z*s.Std + s.Mean }

// TransformAll returns the z-scores of xs.
func (s StandardScaler) TransformAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = s.Transform(x)
	}
	return out
}

// InverseAll maps z-scores back to the original space.
func (s StandardScaler) InverseAll(zs []float64) []float64 {
	out := make([]float64, len(zs))
	for i, z := range zs {
		out[i] = s.Inverse(z)
	}
	return out
}

// IsFiniteSeries reports whether every element of xs is finite.
func IsFiniteSeries(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
