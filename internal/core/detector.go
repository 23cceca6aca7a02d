// Package core implements the paper's predictive control framework: a
// monitor that samples multilevel runtime statistics from the dsps engine,
// per-worker performance predictors (DRNN or any timeseries.Predictor), a
// misbehaving-worker detector over the predictions, a planner that turns
// predictions into split ratios, and an actuator that applies them to
// dynamic groupings — closing the loop the paper closes over Storm.
package core

import (
	"fmt"

	"predstream/internal/stats"
)

// Detector flags misbehaving workers from predicted performance.
type Detector interface {
	// Detect returns the set of misbehaving worker ids given the
	// predicted per-worker metric (higher = worse for processing time).
	Detect(predicted map[string]float64) map[string]bool
}

// RelativeDetector flags a worker when its predicted processing time
// exceeds Factor × the median across workers — the scale-free rule that
// works across applications without per-topology thresholds.
type RelativeDetector struct {
	// Factor is the multiple of the median that counts as misbehaving;
	// values ≤ 1 are rejected at construction.
	Factor float64
}

// NewRelativeDetector validates and builds a RelativeDetector.
func NewRelativeDetector(factor float64) (*RelativeDetector, error) {
	if factor <= 1 {
		return nil, fmt.Errorf("core: detector factor %v must be > 1", factor)
	}
	return &RelativeDetector{Factor: factor}, nil
}

// Detect implements Detector.
func (d *RelativeDetector) Detect(predicted map[string]float64) map[string]bool {
	out := make(map[string]bool, len(predicted))
	if len(predicted) == 0 {
		return out
	}
	vals := make([]float64, 0, len(predicted))
	for _, v := range predicted {
		vals = append(vals, v)
	}
	med := stats.Median(vals)
	for id, v := range predicted {
		out[id] = med > 0 && v > d.Factor*med
	}
	return out
}
