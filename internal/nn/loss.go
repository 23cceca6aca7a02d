package nn

import "fmt"

// Loss is a differentiable objective over a single example.
type Loss interface {
	// Value returns the scalar loss for predicted vs target.
	Value(pred, target []float64) float64
	// Grad returns ∂L/∂pred.
	Grad(pred, target []float64) []float64
	// Name identifies the loss for logging and checkpoints.
	Name() string
}

// MSE is mean squared error, ½·mean((p-t)²) so the gradient is (p-t)/n.
type MSE struct{}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// Value implements Loss.
func (MSE) Value(pred, target []float64) float64 {
	checkLossPair(pred, target)
	var s float64
	for i, p := range pred {
		d := p - target[i]
		s += d * d
	}
	return s / (2 * float64(len(pred)))
}

// Grad implements Loss.
func (MSE) Grad(pred, target []float64) []float64 {
	checkLossPair(pred, target)
	out := make([]float64, len(pred))
	n := float64(len(pred))
	for i, p := range pred {
		out[i] = (p - target[i]) / n
	}
	return out
}

func checkLossPair(pred, target []float64) {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("nn: loss length mismatch %d vs %d", len(pred), len(target)))
	}
	if len(pred) == 0 {
		panic("nn: loss on empty vectors")
	}
}
