package main

import (
	"math"
	"sort"
)

// The benchmark keeps its own order statistics rather than importing
// internal/stats: a change to the repository's helpers must not change how
// the benchmark reads a run.

// quantileSorted returns the q-quantile (0..1) of an ascending slice by
// linear interpolation between closest ranks. It returns 0 for no samples.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	rank := q * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is quantileSorted over an unsorted slice.
func quantile(xs []float64, q float64) float64 { return quantileSorted(sortedCopy(xs), q) }

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the tail percentiles a report may name, ascending.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedTail returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or 0 when not even the median
// does (fewer than 20 samples).
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= minBeyond-1e-9 { // 1-0.9 is a hair under 0.1
			best = q
		}
	}
	return best
}

// tailQuantile reads the want-quantile of xs, lowered to the highest
// percentile the sample count supports. It reports the percentile it
// actually used so a short run can say that its "p99" is a p95.
func tailQuantile(xs []float64, want float64) (value, used float64) {
	used = want
	if s := supportedTail(len(xs)); s < used {
		used = s
	}
	if used == 0 {
		used = 0.5
	}
	return quantile(xs, used), used
}

// quartiles returns the first and third quartile of xs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.75)
}

// meanOf returns the arithmetic mean, or 0 for no samples.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}
