package mat

import "fmt"

// Vector helpers operate on plain []float64 so callers can interoperate
// with the rest of the codebase without wrapping.

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// CloneVec returns a copy of a.
func CloneVec(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}
