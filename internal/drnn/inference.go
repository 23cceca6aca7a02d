package drnn

import (
	"errors"
	"fmt"

	"predstream/internal/nn"
	"predstream/internal/stats"
	"predstream/internal/timeseries"
)

// Inference is a concurrent-safe batched serving handle over a fitted
// Predictor. It owns a pooled batched float64 forward path, applies the
// model's feature standardization during the input gather, and
// de-standardizes predictions back to metric units. Many goroutines may
// call PredictBatch concurrently; the handle never mutates the
// underlying Predictor.
type Inference struct {
	window   int
	features int
	tgt      stats.StandardScaler
	runner   *nn.BatchRunner
}

// Inference builds a serving handle from the fitted model. Its forward
// path is bitwise identical to Predict. quantized must be false; true
// returns an error. The argument survives only because the benchmark's
// serve workload passes it, and goes in the next change to the benchmark.
func (p *Predictor) Inference(quantized bool) (*Inference, error) {
	if quantized {
		return nil, errors.New("drnn: int8 inference is not supported; the forward path is float64 only")
	}
	if !p.fitted {
		return nil, timeseries.ErrNotFitted
	}
	scalers := p.featScalers
	return &Inference{
		window:   p.cfg.Window,
		features: len(scalers),
		tgt:      p.tgtScaler,
		runner: nn.NewBatchRunner(p.net, nn.BatchOptions{PreScale: func(dst, src []float64) {
			for d, v := range src {
				dst[d] = scalers[d].Transform(v)
			}
		}}),
	}, nil
}

// Window returns the input window length each request must supply.
func (inf *Inference) Window() int { return inf.window }

// Features returns the per-timestep feature count each request must supply.
func (inf *Inference) Features() int { return inf.features }

// PredictBatch evaluates a micro-batch of raw (unscaled) feature windows in
// one batched forward pass and writes the prediction for windows[i], in
// metric units, into out[i]. Every window must be Window()×Features().
func (inf *Inference) PredictBatch(windows [][][]float64, out []float64) error {
	if len(out) != len(windows) {
		return fmt.Errorf("drnn: inference got %d outputs for %d windows", len(out), len(windows))
	}
	for i, win := range windows {
		if len(win) != inf.window {
			return fmt.Errorf("drnn: inference window %d has %d steps, want %d", i, len(win), inf.window)
		}
	}
	backing := make([]float64, len(windows))
	rows := make([][]float64, len(windows))
	for i := range rows {
		rows[i] = backing[i : i+1]
	}
	if err := inf.runner.Forward(windows, rows); err != nil {
		return err
	}
	for i, v := range backing {
		out[i] = inf.tgt.Inverse(v)
	}
	return nil
}

// PredictOne is PredictBatch for a single window.
func (inf *Inference) PredictOne(window [][]float64) (float64, error) {
	var out [1]float64
	err := inf.PredictBatch([][][]float64{window}, out[:])
	return out[0], err
}
