package nn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
)

var errEmptyDataset = errors.New("nn: empty dataset")

// Dataset holds sequence-to-one training pairs: X[i] is a window of
// timesteps × features, Y[i] its target vector.
type Dataset struct {
	X [][][]float64
	Y [][]float64
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.X) }

// Validate checks the dataset's internal consistency against a network's
// input/output sizes.
func (d Dataset) Validate(inSize, outSize int) error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("nn: dataset has %d inputs and %d targets", len(d.X), len(d.Y))
	}
	for i, seq := range d.X {
		if len(seq) == 0 {
			return fmt.Errorf("nn: example %d has an empty sequence", i)
		}
		for t, x := range seq {
			if len(x) != inSize {
				return fmt.Errorf("nn: example %d step %d has %d features, want %d", i, t, len(x), inSize)
			}
		}
		if len(d.Y[i]) != outSize {
			return fmt.Errorf("nn: example %d target has %d values, want %d", i, len(d.Y[i]), outSize)
		}
	}
	return nil
}

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs    int
	Optimizer Optimizer
	Loss      Loss
	ClipNorm  float64 // gradient clipping by global norm; <=0 disables
	Shuffle   bool
	Rng       *rand.Rand // required when Shuffle is true
	// BatchSize accumulates gradients over this many examples before each
	// optimizer step (mini-batch SGD); 0 or 1 steps per example. Gradients
	// are averaged over the batch so the learning rate is batch-size
	// independent.
	BatchSize int
	// Patience stops training after this many epochs without improvement
	// of the epoch loss; 0 disables early stopping.
	Patience int
	// Workers is the number of replicas running Forward/Backward
	// concurrently within each mini-batch: 0 uses runtime.GOMAXPROCS(0),
	// 1 runs inline on the calling goroutine. Results are bitwise-identical
	// for any value (gradients reduce in example order; see DESIGN.md,
	// "Training engine"). Values above BatchSize buy nothing: examples
	// within one batch are the only available parallelism.
	Workers int
}

// effectiveWorkers resolves a Workers knob to a concrete count.
func effectiveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Train runs stochastic training of net on data and returns the mean loss
// per epoch.
func Train(net *Network, data Dataset, cfg TrainConfig) ([]float64, error) {
	if err := data.Validate(net.InSize(), net.OutSize()); err != nil {
		return nil, err
	}
	if data.Len() == 0 {
		return nil, errEmptyDataset
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("nn: non-positive epoch count %d", cfg.Epochs)
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(1e-3)
	}
	if cfg.Loss == nil {
		cfg.Loss = MSE{}
	}
	if cfg.Shuffle && cfg.Rng == nil {
		return nil, fmt.Errorf("nn: Shuffle requires an Rng")
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 1
	}
	eng := newEngine(net, cfg.Loss, effectiveWorkers(cfg.Workers))
	params := net.Params()
	order := make([]int, data.Len())
	for i := range order {
		order[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)
	best := -1.0
	sinceBest := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Shuffle {
			cfg.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var total float64
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			total += eng.runBatch(data, order[start:end])
			if count := end - start; count > 1 {
				scale := 1 / float64(count)
				for _, p := range params {
					p.Grad.ScaleInPlace(scale)
				}
			}
			ClipGradients(params, cfg.ClipNorm)
			cfg.Optimizer.Step(params)
		}
		mean := total / float64(data.Len())
		losses = append(losses, mean)
		if best < 0 || mean < best {
			best = mean
			sinceBest = 0
		} else {
			sinceBest++
			if cfg.Patience > 0 && sinceBest >= cfg.Patience {
				break
			}
		}
	}
	return losses, nil
}
