// Package experiments implements the reconstructed evaluation suite
// E1..E10 (see DESIGN.md): each experiment is a pure function returning a
// structured result plus a text rendering, shared by cmd/experiments and
// the root benchmark harness. Traces default to the deterministic
// queueing-model generator (internal/trace); the accuracy experiments can
// also run against live engine traces.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"predstream/internal/arima"
	"predstream/internal/drnn"
	"predstream/internal/stats"
	"predstream/internal/svr"
	"predstream/internal/telemetry"
	"predstream/internal/timeseries"
	"predstream/internal/trace"
	"predstream/internal/workload"
)

// AppProfile selects the workload profile a synthetic trace mimics.
type AppProfile string

const (
	// AppURLCount mimics the Windowed URL Count runtime profile: light
	// per-tuple work under a diurnal (sinusoidal) load.
	AppURLCount AppProfile = "urlcount"
	// AppContQuery mimics Continuous Queries: heavier per-record work
	// under bursty load.
	AppContQuery AppProfile = "contquery"
)

// traceFor generates the deterministic multilevel-statistics trace for an
// application profile.
func traceFor(app AppProfile, steps int, seed int64) (map[string][]telemetry.WindowStats, error) {
	switch app {
	case AppURLCount:
		return trace.Synthetic(trace.SyntheticConfig{
			Workers: 4, Nodes: 2, Cores: 4,
			BaseMs: 1.0,
			Shape:  workload.SinusoidRate{Base: 900, Amplitude: 500, Period: 50 * time.Second},
			Steps:  steps, Seed: seed,
		}), nil
	case AppContQuery:
		return trace.Synthetic(trace.SyntheticConfig{
			Workers: 4, Nodes: 2, Cores: 4,
			BaseMs: 2.0,
			Shape:  workload.BurstRate{Base: 400, BurstX: 3, Period: 20 * time.Second, Duration: 5 * time.Second},
			Steps:  steps, Seed: seed,
		}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown app profile %q", app)
	}
}

// E1–E4 predict worker-0's series from windows of accuracyWindow steps.
const (
	accuracyWorker = "worker-0"
	accuracyWindow = 10
)

// AccuracyConfig parameterizes E1/E2 (and feeds E3).
type AccuracyConfig struct {
	App     AppProfile
	Steps   int   // trace length in windows; default 500
	Horizon int   // forecast horizon; default 1
	Seed    int64 // default 1
	// Epochs overrides DRNN training epochs; default 40.
	Epochs int
	// Workers is the DRNN training worker count; 0 uses all CPUs. Results
	// are worker-count invariant (it changes only wall-clock time), so
	// experiment outputs stay reproducible for any value. Parallelism is
	// per mini-batch, so it only pays off with Config.BatchSize > 1.
	Workers int
}

func (c AccuracyConfig) withDefaults() AccuracyConfig {
	if c.App == "" {
		c.App = AppURLCount
	}
	if c.Steps <= 0 {
		c.Steps = 500
	}
	if c.Horizon <= 0 {
		c.Horizon = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Epochs <= 0 {
		c.Epochs = 40
	}
	return c
}

// AccuracyResult holds one accuracy comparison (one figure of the E1/E2
// family).
type AccuracyResult struct {
	App     AppProfile
	Horizon int
	// Results per model in run order (DRNN, ARIMA, SVR, Naive).
	Results []*timeseries.EvalResult
}

// Best returns the model name with the lowest RMSE.
func (r *AccuracyResult) Best() string {
	best := ""
	bestRMSE := 0.0
	for _, res := range r.Results {
		if best == "" || res.Report.RMSE < bestRMSE {
			best = res.Model
			bestRMSE = res.Report.RMSE
		}
	}
	return best
}

// Render prints the accuracy table the E1/E2 figures report.
func (r *AccuracyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prediction accuracy — %s, horizon %d (per-worker avg tuple processing time)\n", r.App, r.Horizon)
	for _, res := range r.Results {
		fmt.Fprintf(&b, "  %s\n", res.Report)
	}
	fmt.Fprintf(&b, "  best by RMSE: %s\n", r.Best())
	return b.String()
}

// RunAccuracy executes E1 (urlcount) or E2 (contquery): the DRNN vs ARIMA
// vs SVR walk-forward comparison on one worker's processing-time series,
// plus the persistence baseline.
func RunAccuracy(cfg AccuracyConfig) (*AccuracyResult, error) {
	cfg = cfg.withDefaults()
	traces, err := traceFor(cfg.App, cfg.Steps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	featCfg := telemetry.FeatureConfig{Interference: true}
	series := telemetry.ToSeries(traces[accuracyWorker], telemetry.TargetProcTime, featCfg)
	trainLen := series.Len() * 7 / 10

	models := []timeseries.Predictor{
		drnn.New(drnn.Config{
			Window: accuracyWindow, Horizon: cfg.Horizon,
			Hidden: []int{32, 32}, DenseHidden: []int{16},
			Epochs: cfg.Epochs, Seed: cfg.Seed, Workers: cfg.Workers,
		}),
		arima.New(3, 0, 1),
		svr.NewWindowPredictor(accuracyWindow, cfg.Horizon, &svr.SVR{C: 10, Eps: 0.05, MaxIter: 200}),
		&timeseries.NaivePredictor{},
	}
	results, err := timeseries.Compare(models, series, trainLen, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	return &AccuracyResult{App: cfg.App, Horizon: cfg.Horizon, Results: results}, nil
}

// OverlayResult is E3: the predicted-vs-actual time series of the best
// model on the held-out span.
type OverlayResult struct {
	Model     string
	Actual    []float64
	Predicted []float64
}

// Render prints the overlay as two aligned series (the data behind the E3
// line chart).
func (r *OverlayResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Predicted vs actual (model %s), %d held-out windows\n", r.Model, len(r.Actual))
	fmt.Fprintf(&b, "  %-6s %12s %12s\n", "t", "actual", "predicted")
	for i := range r.Actual {
		fmt.Fprintf(&b, "  %-6d %12.4f %12.4f\n", i, r.Actual[i], r.Predicted[i])
	}
	return b.String()
}

// RunOverlay executes E3 by running E1 and extracting the best model's
// forecast trace.
func RunOverlay(cfg AccuracyConfig) (*OverlayResult, error) {
	acc, err := RunAccuracy(cfg)
	if err != nil {
		return nil, err
	}
	best := acc.Best()
	for _, res := range acc.Results {
		if res.Model == best {
			return &OverlayResult{Model: best, Actual: res.Actual, Predicted: res.Predicted}, nil
		}
	}
	return nil, fmt.Errorf("experiments: best model %q missing from results", best)
}

// AblationResult is E4: the interference-feature and depth ablation.
type AblationResult struct {
	Rows []AblationRow
}

// AblationRow is one ablation cell.
type AblationRow struct {
	Name   string
	Report stats.Report
}

// Render prints the E4 table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("DRNN ablation — interference features and depth (synthetic co-located trace)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-28s %s\n", row.Name, row.Report)
	}
	return b.String()
}

// RunAblation executes E4 on a trace with strong co-location interference:
// DRNN with vs without co-located-worker features, and 1 vs 2 recurrent
// layers. epochs <= 0 defaults to 60; workers is the training worker count
// (0 uses all CPUs; it does not affect the results).
func RunAblation(steps, epochs int, seed int64, workers int) (*AblationResult, error) {
	if steps <= 0 {
		steps = 500
	}
	if epochs <= 0 {
		epochs = 60
	}
	if seed == 0 {
		seed = 1
	}
	traces := trace.Synthetic(trace.SyntheticConfig{
		Workers: 4, Nodes: 1, Cores: 2, // everyone co-located, tight cores
		BaseMs: 1.0,
		Alpha:  3,
		// Independent, *short*-burst per-worker load shapes plus a lagged
		// interference impact: a co-worker's 2-window burst hits this
		// worker's processing time three windows later, after the burst
		// itself has already ended. The target's own history therefore
		// carries no warning at all — only the co-located-worker features
		// see the burst coming. This is the regime the paper's
		// interference-aware model is built for.
		Shapes: []workload.RateShape{
			workload.BurstRate{Base: 350, BurstX: 5, Period: 13 * time.Second, Duration: 2 * time.Second},
			workload.BurstRate{Base: 400, BurstX: 5, Period: 17 * time.Second, Duration: 2 * time.Second},
			workload.BurstRate{Base: 300, BurstX: 6, Period: 19 * time.Second, Duration: 2 * time.Second},
			workload.BurstRate{Base: 450, BurstX: 5, Period: 23 * time.Second, Duration: 2 * time.Second},
		},
		InterferenceLag: 3,
		NoiseStd:        0.03,
		SpikeProb:       0.005,
		Steps:           steps, Seed: seed,
	})
	workerIDs := make([]string, 0, len(traces))
	for id := range traces {
		workerIDs = append(workerIDs, id)
	}
	sort.Strings(workerIDs)
	type variant struct {
		name         string
		interference bool
		hidden       []int
	}
	variants := []variant{
		{"interference, 2 layers", true, []int{32, 32}},
		{"interference, 1 layer", true, []int{32}},
		{"no interference, 2 layers", false, []int{32, 32}},
		{"no interference, 1 layer", false, []int{32}},
	}
	out := &AblationResult{}
	for _, v := range variants {
		// Pool every worker's walk-forward residuals so the comparison is
		// over 4× the evaluation points — a single worker's series is too
		// noisy to separate the variants reliably.
		var actual, pred []float64
		for _, id := range workerIDs {
			series := telemetry.ToSeries(traces[id], telemetry.TargetProcTime, telemetry.FeatureConfig{Interference: v.interference})
			model := drnn.New(drnn.Config{
				Window: 10, Hidden: v.hidden, DenseHidden: []int{16},
				Epochs: epochs, Patience: -1, Seed: seed, Workers: workers,
			})
			res, err := timeseries.WalkForward(model, series, series.Len()*7/10, 1)
			if err != nil {
				return nil, err
			}
			actual = append(actual, res.Actual...)
			pred = append(pred, res.Predicted...)
		}
		out.Rows = append(out.Rows, AblationRow{Name: v.name, Report: stats.Evaluate("DRNN", actual, pred)})
	}
	return out, nil
}

// ConvergenceResult is E8: DRNN training-loss-vs-epoch.
type ConvergenceResult struct {
	Losses    []float64
	NumParams int
}

// Render prints the E8 series.
func (r *ConvergenceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DRNN training convergence (%d parameters)\n", r.NumParams)
	fmt.Fprintf(&b, "  %-6s %12s\n", "epoch", "mean loss")
	for i, l := range r.Losses {
		fmt.Fprintf(&b, "  %-6d %12.6f\n", i, l)
	}
	return b.String()
}

// RunConvergence executes E8 on the E1 trace.
func RunConvergence(cfg AccuracyConfig) (*ConvergenceResult, error) {
	cfg = cfg.withDefaults()
	traces, err := traceFor(cfg.App, cfg.Steps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	series := telemetry.ToSeries(traces[accuracyWorker], telemetry.TargetProcTime, telemetry.FeatureConfig{Interference: true})
	model := drnn.New(drnn.Config{
		Window: accuracyWindow, Hidden: []int{32, 32}, DenseHidden: []int{16},
		Epochs: cfg.Epochs, Seed: cfg.Seed, Patience: -1, Workers: cfg.Workers,
	})
	trainLen := series.Len() * 7 / 10
	if err := model.Fit(series.Slice(0, trainLen)); err != nil {
		return nil, err
	}
	return &ConvergenceResult{Losses: model.LossHistory(), NumParams: model.NumParams()}, nil
}

// SensitivityResult is E9: DRNN accuracy across window sizes and horizons.
type SensitivityResult struct {
	Windows  []int
	Horizons []int
	// MAPE[i][j] is the MAPE for Windows[i] × Horizons[j].
	MAPE [][]float64
}

// Render prints the E9 grid.
func (r *SensitivityResult) Render() string {
	var b strings.Builder
	b.WriteString("DRNN sensitivity — MAPE(%) by input window and horizon\n")
	fmt.Fprintf(&b, "  %-10s", "window\\h")
	for _, h := range r.Horizons {
		fmt.Fprintf(&b, " %8d", h)
	}
	b.WriteString("\n")
	for i, w := range r.Windows {
		fmt.Fprintf(&b, "  %-10d", w)
		for j := range r.Horizons {
			fmt.Fprintf(&b, " %8.2f", r.MAPE[i][j])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RunSensitivity executes E9 on the E1 trace.
func RunSensitivity(cfg AccuracyConfig, windows, horizons []int) (*SensitivityResult, error) {
	cfg = cfg.withDefaults()
	if len(windows) == 0 {
		windows = []int{5, 10, 20}
	}
	if len(horizons) == 0 {
		horizons = []int{1, 3, 5}
	}
	traces, err := traceFor(cfg.App, cfg.Steps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	series := telemetry.ToSeries(traces[accuracyWorker], telemetry.TargetProcTime, telemetry.FeatureConfig{Interference: true})
	trainLen := series.Len() * 7 / 10
	out := &SensitivityResult{Windows: windows, Horizons: horizons}
	for _, w := range windows {
		row := make([]float64, 0, len(horizons))
		for _, h := range horizons {
			model := drnn.New(drnn.Config{
				Window: w, Horizon: h,
				Hidden: []int{24}, DenseHidden: []int{12},
				Epochs: 25, Seed: cfg.Seed, Workers: cfg.Workers,
			})
			res, err := timeseries.WalkForward(model, series, trainLen, h)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Report.MAPE)
		}
		out.MAPE = append(out.MAPE, row)
	}
	return out, nil
}
