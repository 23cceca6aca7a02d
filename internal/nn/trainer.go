package nn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"predstream/internal/mat"
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

// Split partitions the dataset into a leading train part and trailing test
// part at the given fraction, preserving order (time-series style: the
// test set is strictly later than the training set).
func (d Dataset) Split(trainFrac float64) (train, test Dataset) {
	n := int(float64(d.Len()) * trainFrac)
	if n < 0 {
		n = 0
	}
	if n > d.Len() {
		n = d.Len()
	}
	return Dataset{X: d.X[:n], Y: d.Y[:n]}, Dataset{X: d.X[n:], Y: d.Y[n:]}
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
	// of the epoch loss (the validation loss when ValData is set);
	// 0 disables early stopping.
	Patience int
	// ValData optionally holds a validation set: Patience then tracks the
	// validation loss, and the weights from the best validation epoch are
	// restored when training ends.
	ValData *Dataset
	// OnEpoch, if set, is invoked with (epoch, meanLoss) after each epoch;
	// returning false stops training early.
	OnEpoch func(epoch int, loss float64) bool
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
	if cfg.ValData != nil {
		if err := cfg.ValData.Validate(net.InSize(), net.OutSize()); err != nil {
			return nil, fmt.Errorf("nn: validation set: %w", err)
		}
		if cfg.ValData.Len() == 0 {
			return nil, fmt.Errorf("nn: empty validation set")
		}
	}
	dropout := net.DropoutP > 0
	var baseSeed int64
	if dropout {
		rng := cfg.Rng
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		baseSeed = rng.Int63()
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 1
	}
	eng := newEngine(net, cfg.Loss, effectiveWorkers(cfg.Workers), baseSeed, dropout)
	params := net.Params()
	order := make([]int, data.Len())
	for i := range order {
		order[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)
	best := -1.0
	sinceBest := 0
	var bestWeights []*mat.Dense
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
			total += eng.runBatch(data, order[start:end], epoch, start)
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
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, mean) {
			break
		}
		// Track the monitored loss: validation when provided, training
		// otherwise.
		monitored := mean
		if cfg.ValData != nil {
			// The engine's replicas double as the validation evaluator; it
			// flips them to inference mode itself, so there is no hand-rolled
			// dropout toggle here anymore.
			monitored = eng.evaluate(cfg.ValData)
		}
		improved := best < 0 || monitored < best
		if improved {
			best = monitored
			sinceBest = 0
			if cfg.ValData != nil {
				bestWeights = net.SnapshotWeights()
			}
		} else {
			sinceBest++
			if cfg.Patience > 0 && sinceBest >= cfg.Patience {
				break
			}
		}
	}
	if bestWeights != nil {
		net.RestoreWeights(bestWeights)
	}
	return losses, nil
}
