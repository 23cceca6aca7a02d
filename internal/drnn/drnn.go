// Package drnn implements the paper's Deep Recurrent Neural Network
// performance predictor: a stack of LSTM layers followed by fully connected
// layers, consuming a sliding window of multilevel runtime statistics
// (tuple-, task-, worker- and machine-level features, including those of
// co-located workers) and predicting the next measurement of a worker's
// performance metric (average tuple processing time or throughput).
//
// The interference-awareness the paper emphasizes is a property of the
// feature vectors (see internal/telemetry.Features): this package
// accepts any multivariate series, so experiment E4 ablates interference by
// toggling co-located-worker features in the series it feeds in.
package drnn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"predstream/internal/nn"
	"predstream/internal/stats"
	"predstream/internal/timeseries"
)

// clipNorm clips training gradients by global norm.
const clipNorm = 5

// Config describes a DRNN predictor. Zero values take the paper-regime
// defaults noted per field.
type Config struct {
	Window  int // input window length in measurement periods; default 10
	Horizon int // forecast horizon in periods; default 1

	Hidden      []int // LSTM stack sizes; default {32, 32} (two layers)
	DenseHidden []int // dense head sizes before the output; default {16}

	Epochs    int     // training epochs; default 60
	LR        float64 // Adam learning rate; default 1e-3
	BatchSize int     // mini-batch size; default 1 (pure SGD)
	Patience  int     // early-stopping patience in epochs; default 8; <0 disables
	Seed      int64   // rng seed for init and shuffling; default 1
	// Workers is the number of concurrent workers evaluating each training
	// mini-batch; 0 (default) uses all CPUs, 1 forces serial. The fitted
	// model is bitwise-identical for any value (see DESIGN.md, "Training
	// engine"), so this is purely a throughput knob.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.Horizon <= 0 {
		c.Horizon = 1
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{32, 32}
	}
	if len(c.DenseHidden) == 0 {
		c.DenseHidden = []int{16}
	}
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.Patience == 0 {
		c.Patience = 8
	} else if c.Patience < 0 {
		c.Patience = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Predictor is a fitted or fittable DRNN model implementing
// timeseries.Predictor.
type Predictor struct {
	cfg Config

	net         *nn.Network
	featScalers []stats.StandardScaler
	tgtScaler   stats.StandardScaler
	lossHistory []float64
	fitted      bool
}

// New returns an unfitted DRNN predictor.
func New(cfg Config) *Predictor {
	return &Predictor{cfg: cfg.withDefaults()}
}

// Name implements timeseries.Predictor.
func (p *Predictor) Name() string { return "DRNN" }

// MinContext implements timeseries.Predictor.
func (p *Predictor) MinContext() int { return p.cfg.Window }

// LossHistory returns the per-epoch mean training loss of the last Fit,
// the series experiment E8 plots.
func (p *Predictor) LossHistory() []float64 {
	out := make([]float64, len(p.lossHistory))
	copy(out, p.lossHistory)
	return out
}

// Fit implements timeseries.Predictor: it standardizes features and target
// on the training span, builds sliding windows, and trains the network with
// Adam + gradient clipping.
func (p *Predictor) Fit(train *timeseries.Series) error {
	if err := train.Validate(); err != nil {
		return err
	}
	dim := train.FeatureDim()
	if dim == 0 {
		return fmt.Errorf("drnn: empty training series")
	}
	inputs, targets, err := timeseries.Window(train, p.cfg.Window, p.cfg.Horizon)
	if err != nil {
		return err
	}
	if len(inputs) < 2 {
		return fmt.Errorf("drnn: training series of %d yields %d windows; need at least 2",
			train.Len(), len(inputs))
	}

	p.featScalers = make([]stats.StandardScaler, dim)
	for d := 0; d < dim; d++ {
		col := make([]float64, train.Len())
		for i, pt := range train.Points {
			col[i] = pt.Features[d]
		}
		p.featScalers[d] = stats.FitStandard(col)
	}
	p.tgtScaler = stats.FitStandard(train.Targets())

	data := nn.Dataset{
		X: make([][][]float64, len(inputs)),
		Y: make([][]float64, len(targets)),
	}
	for i, win := range inputs {
		data.X[i] = p.scaleWindow(win)
		data.Y[i] = []float64{p.tgtScaler.Transform(targets[i])}
	}

	rng := rand.New(rand.NewSource(p.cfg.Seed))
	p.net = nn.NewNetwork(nn.Arch{
		In:          dim,
		LSTMHidden:  p.cfg.Hidden,
		DenseHidden: p.cfg.DenseHidden,
		Out:         1,
	}, rng)
	losses, err := nn.Train(p.net, data, nn.TrainConfig{
		Epochs:    p.cfg.Epochs,
		Optimizer: nn.NewAdam(p.cfg.LR),
		Loss:      nn.MSE{},
		ClipNorm:  clipNorm,
		BatchSize: p.cfg.BatchSize,
		Shuffle:   true,
		Rng:       rng,
		Patience:  p.cfg.Patience,
		Workers:   p.cfg.Workers,
	})
	if err != nil {
		return fmt.Errorf("drnn: train: %w", err)
	}
	p.lossHistory = losses
	p.fitted = true
	return nil
}

func (p *Predictor) scaleWindow(win [][]float64) [][]float64 {
	out := make([][]float64, len(win))
	for t, step := range win {
		row := make([]float64, len(step))
		for d, v := range step {
			row[d] = p.featScalers[d].Transform(v)
		}
		out[t] = row
	}
	return out
}

// Predict implements timeseries.Predictor.
func (p *Predictor) Predict(recent *timeseries.Series, horizon int) (float64, error) {
	if !p.fitted {
		return 0, timeseries.ErrNotFitted
	}
	if horizon != p.cfg.Horizon {
		return 0, fmt.Errorf("drnn: fitted for horizon %d, asked for %d", p.cfg.Horizon, horizon)
	}
	n := recent.Len()
	if n < p.cfg.Window {
		return 0, timeseries.ErrShortContext
	}
	if recent.FeatureDim() != len(p.featScalers) {
		return 0, fmt.Errorf("drnn: context has %d features, model trained on %d",
			recent.FeatureDim(), len(p.featScalers))
	}
	win := make([][]float64, p.cfg.Window)
	for t := 0; t < p.cfg.Window; t++ {
		win[t] = recent.Points[n-p.cfg.Window+t].Features
	}
	out := p.net.Forward(p.scaleWindow(win))
	return p.tgtScaler.Inverse(out[0]), nil
}

// NumParams returns the scalar parameter count of the fitted network, or 0
// before Fit.
func (p *Predictor) NumParams() int {
	if p.net == nil {
		return 0
	}
	return p.net.NumParams()
}

// checkpoint is the gob wire format for a fitted predictor. The network is
// nested as its own gob payload via nn.Save.
type checkpoint struct {
	Cfg         Config
	FeatScalers []stats.StandardScaler
	TgtScaler   stats.StandardScaler
	LossHistory []float64
	NetBytes    []byte
}

// Save serializes the fitted predictor to w.
func (p *Predictor) Save(w io.Writer) error {
	if !p.fitted {
		return timeseries.ErrNotFitted
	}
	var netBuf sliceWriter
	if err := nn.Save(p.net, &netBuf); err != nil {
		return err
	}
	cp := checkpoint{
		Cfg:         p.cfg,
		FeatScalers: p.featScalers,
		TgtScaler:   p.tgtScaler,
		LossHistory: p.lossHistory,
		NetBytes:    netBuf.b,
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("drnn: save: %w", err)
	}
	return nil
}

// Load reconstructs a fitted predictor from a checkpoint written by Save.
func Load(r io.Reader) (*Predictor, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("drnn: load: %w", err)
	}
	net, err := nn.Load(&sliceReader{b: cp.NetBytes})
	if err != nil {
		return nil, err
	}
	if net.InSize() != len(cp.FeatScalers) || net.OutSize() != 1 {
		return nil, fmt.Errorf("drnn: load: network maps %d features to %d outputs, checkpoint scales %d features to 1",
			net.InSize(), net.OutSize(), len(cp.FeatScalers))
	}
	return &Predictor{
		cfg:         cp.Cfg.withDefaults(),
		net:         net,
		featScalers: cp.FeatScalers,
		tgtScaler:   cp.TgtScaler,
		lossHistory: cp.LossHistory,
		fitted:      true,
	}, nil
}

// sliceWriter and sliceReader avoid importing bytes just for buffers.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type sliceReader struct {
	b   []byte
	off int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
