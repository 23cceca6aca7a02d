package drnn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"predstream/internal/timeseries"
)

// sineSeries builds a univariate sine series with optional noise.
func sineSeries(n int, noise float64, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(0.2*float64(i)) + noise*rng.NormFloat64()
	}
	return timeseries.FromTargets(xs)
}

// multivariateSeries builds a series whose target is driven by a white
// leading indicator three steps ahead of it: the second feature at step i
// determines the target at step i+3. Target history alone cannot predict
// the next value, so only models that use the driver feature can do well —
// the same mechanism that makes the paper's co-located-worker features
// informative.
func multivariateSeries(n int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	drivers := make([]float64, n)
	for i := range drivers {
		drivers[i] = rng.NormFloat64()
	}
	s := &timeseries.Series{}
	for i := 0; i < n; i++ {
		target := 0.05 * rng.NormFloat64()
		if i >= 3 {
			target += 2 * drivers[i-3]
		}
		s.Points = append(s.Points, timeseries.Point{
			Features: []float64{target, drivers[i]},
			Target:   target,
		})
	}
	return s
}

func TestConfigDefaults(t *testing.T) {
	p := New(Config{})
	cfg := p.Config()
	if cfg.Window != 10 || cfg.Horizon != 1 {
		t.Fatalf("window/horizon defaults = %d/%d", cfg.Window, cfg.Horizon)
	}
	if len(cfg.Hidden) != 2 || cfg.Hidden[0] != 32 {
		t.Fatalf("hidden defaults = %v", cfg.Hidden)
	}
	if cfg.Epochs != 60 || cfg.LR != 1e-3 || cfg.Patience != 8 {
		t.Fatalf("training defaults = %+v", cfg)
	}
	// Negative patience disables early stopping.
	if got := New(Config{Patience: -1}).Config().Patience; got != 0 {
		t.Fatalf("Patience -1 mapped to %d", got)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	p := New(Config{})
	if _, err := p.Predict(sineSeries(20, 0, 1), 1); err != timeseries.ErrNotFitted {
		t.Fatalf("expected ErrNotFitted, got %v", err)
	}
	if p.NumParams() != 0 {
		t.Fatal("unfitted NumParams should be 0")
	}
}

func TestFitValidation(t *testing.T) {
	p := New(Config{Window: 5})
	if err := p.Fit(timeseries.FromTargets([]float64{1, 2, 3})); err == nil {
		t.Fatal("too-short series should fail")
	}
	ragged := &timeseries.Series{Points: []timeseries.Point{
		{Features: []float64{1, 2}, Target: 1},
		{Features: []float64{1}, Target: 2},
	}}
	if err := p.Fit(ragged); err == nil {
		t.Fatal("ragged series should fail")
	}
}

func TestLearnsSineAndBeatsNaive(t *testing.T) {
	series := sineSeries(400, 0.02, 2)
	p := New(Config{Window: 8, Hidden: []int{12}, DenseHidden: []int{8}, Epochs: 40, LR: 5e-3, Seed: 3})
	res, err := timeseries.WalkForward(p, series, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := timeseries.WalkForward(&timeseries.NaivePredictor{}, series, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.RMSE >= naive.Report.RMSE {
		t.Fatalf("DRNN RMSE %v did not beat naive %v on sine", res.Report.RMSE, naive.Report.RMSE)
	}
	if len(p.LossHistory()) == 0 {
		t.Fatal("no loss history recorded")
	}
	first, last := p.LossHistory()[0], p.LossHistory()[len(p.LossHistory())-1]
	if last >= first {
		t.Fatalf("training loss did not decrease: %v -> %v", first, last)
	}
}

func TestMultivariateFeaturesHelp(t *testing.T) {
	// The same model with the driver feature removed must do worse — this
	// is the mechanism behind the paper's interference-feature claim (E4).
	full := multivariateSeries(500, 4)
	blind := &timeseries.Series{}
	for _, pt := range full.Points {
		blind.Points = append(blind.Points, timeseries.Point{
			Features: []float64{pt.Features[0]},
			Target:   pt.Target,
		})
	}
	cfg := Config{Window: 6, Hidden: []int{10}, DenseHidden: []int{6}, Epochs: 30, LR: 5e-3, Seed: 5}
	resFull, err := timeseries.WalkForward(New(cfg), full, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	resBlind, err := timeseries.WalkForward(New(cfg), blind, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resFull.Report.RMSE >= resBlind.Report.RMSE {
		t.Fatalf("driver feature did not help: full %v vs blind %v",
			resFull.Report.RMSE, resBlind.Report.RMSE)
	}
}

func TestPredictContextValidation(t *testing.T) {
	series := sineSeries(120, 0, 6)
	p := New(Config{Window: 5, Hidden: []int{4}, Epochs: 2, Seed: 7})
	if err := p.Fit(series); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(sineSeries(3, 0, 1), 1); err != timeseries.ErrShortContext {
		t.Fatalf("expected ErrShortContext, got %v", err)
	}
	if _, err := p.Predict(series, 4); err == nil {
		t.Fatal("horizon mismatch should error")
	}
	if _, err := p.Predict(multivariateSeries(20, 1), 1); err == nil {
		t.Fatal("feature-width mismatch should error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	series := sineSeries(150, 0, 8)
	p := New(Config{Window: 5, Hidden: []int{6}, Epochs: 5, Seed: 9})
	if err := p.Fit(series); err != nil {
		t.Fatal(err)
	}
	want, err := p.Predict(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Predict(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("round-trip prediction %v want %v", got, want)
	}
	if len(loaded.LossHistory()) != len(p.LossHistory()) {
		t.Fatal("loss history lost in round-trip")
	}
}

func TestSaveUnfitted(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Config{}).Save(&buf); err != timeseries.ErrNotFitted {
		t.Fatalf("expected ErrNotFitted, got %v", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage should error")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	series := sineSeries(150, 0.01, 10)
	mk := func() float64 {
		p := New(Config{Window: 5, Hidden: []int{6}, Epochs: 5, Seed: 11})
		if err := p.Fit(series); err != nil {
			t.Fatal(err)
		}
		v, err := p.Predict(series, 1)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same seed produced %v and %v", a, b)
	}
}

func BenchmarkFitSmall(b *testing.B) {
	series := sineSeries(200, 0.02, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(Config{Window: 8, Hidden: []int{16}, Epochs: 5, Seed: 13})
		if err := p.Fit(series); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	series := sineSeries(300, 0.02, 14)
	p := New(Config{Window: 10, Hidden: []int{32, 32}, Epochs: 2, Seed: 15})
	if err := p.Fit(series); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(series, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Config returns the effective (defaulted) configuration.
func (p *Predictor) Config() Config { return p.cfg }
