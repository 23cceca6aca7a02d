package arima

import (
	"math"
	"math/rand"
	"testing"

	"predstream/internal/timeseries"
)

// genAR1 simulates x_t = c + phi·x_{t-1} + e_t.
func genAR1(n int, c, phi, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	xs[0] = c / (1 - phi)
	for i := 1; i < n; i++ {
		xs[i] = c + phi*xs[i-1] + noise*rng.NormFloat64()
	}
	return xs
}

// genMA1 simulates x_t = mu + e_t + theta·e_{t-1}.
func genMA1(n int, mu, theta, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		e := noise * rng.NormFloat64()
		xs[i] = mu + e + theta*prev
		prev = e
	}
	return xs
}

func TestNewPanics(t *testing.T) {
	for _, order := range [][3]int{{-1, 0, 1}, {0, -1, 1}, {1, 0, -1}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", order)
				}
			}()
			New(order[0], order[1], order[2])
		}()
	}
}

func TestFitRecoversAR1Coefficient(t *testing.T) {
	xs := genAR1(2000, 1.0, 0.7, 0.5, 1)
	m := New(1, 0, 0)
	if err := m.Fit(timeseries.FromTargets(xs)); err != nil {
		t.Fatal(err)
	}
	_, phi, _ := m.Coefficients()
	if math.Abs(phi[0]-0.7) > 0.08 {
		t.Fatalf("phi = %v want ≈0.7", phi[0])
	}
}

func TestFitRecoversMA1Coefficient(t *testing.T) {
	xs := genMA1(4000, 0, 0.6, 1.0, 2)
	m := New(0, 0, 1)
	if err := m.Fit(timeseries.FromTargets(xs)); err != nil {
		t.Fatal(err)
	}
	_, _, theta := m.Coefficients()
	if math.Abs(theta[0]-0.6) > 0.12 {
		t.Fatalf("theta = %v want ≈0.6", theta[0])
	}
}

func TestForecastAR1BeatsNaiveOnMeanReversion(t *testing.T) {
	xs := genAR1(1200, 0, 0.9, 1.0, 3)
	series := timeseries.FromTargets(xs)
	res, err := timeseries.WalkForward(New(1, 0, 0), series, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := timeseries.WalkForward(&timeseries.NaivePredictor{}, series, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.RMSE >= naive.Report.RMSE {
		t.Fatalf("ARIMA RMSE %v should beat naive %v on AR(1)", res.Report.RMSE, naive.Report.RMSE)
	}
}

func TestDifferencingHandlesLinearTrend(t *testing.T) {
	// x_t = 2t + AR(1) noise: d=1 should forecast the trend accurately.
	base := genAR1(600, 0, 0.5, 0.3, 4)
	xs := make([]float64, len(base))
	for i := range xs {
		xs[i] = 2*float64(i) + base[i]
	}
	m := New(1, 1, 0)
	if err := m.Fit(timeseries.FromTargets(xs[:500])); err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(xs[:500], 3)
	if err != nil {
		t.Fatal(err)
	}
	for h, f := range fc {
		want := 2 * float64(500+h)
		if math.Abs(f-want) > 5 {
			t.Fatalf("h=%d forecast %v want ≈%v", h+1, f, want)
		}
	}
}

func TestClampInvertible(t *testing.T) {
	got := clampInvertible([]float64{0.5, 1.7, -2.3})
	if got[0] != 0.5 || got[1] != 0.98 || got[2] != -0.98 {
		t.Fatalf("clamp = %v", got)
	}
}

func TestMAForecastsStayFiniteOverLongContexts(t *testing.T) {
	// Regression test: a Hannan–Rissanen fit can land on |θ| ≥ 1, and the
	// residual-reconstruction filter then diverges exponentially over a
	// long walk-forward context. The invertibility clamp must keep every
	// one-step forecast finite and sane regardless of which series it is
	// asked to fit.
	for seed := int64(0); seed < 6; seed++ {
		xs := genMA1(400, 5, 0.95, 1.0, seed)
		m := New(1, 0, 2)
		if err := m.Fit(timeseries.FromTargets(xs[:250])); err != nil {
			t.Fatal(err)
		}
		_, _, theta := m.Coefficients()
		for _, v := range theta {
			if v >= 1 || v <= -1 {
				t.Fatalf("seed %d: non-invertible theta %v survived", seed, theta)
			}
		}
		for i := 250; i < len(xs); i++ {
			fc, err := m.Forecast(xs[:i], 1)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(fc[0]) || math.Abs(fc[0]) > 1e6 {
				t.Fatalf("seed %d: forecast exploded at %d: %v", seed, i, fc[0])
			}
		}
	}
}

func TestForecastErrors(t *testing.T) {
	m := New(1, 0, 1)
	if _, err := m.Forecast([]float64{1, 2, 3}, 1); err != timeseries.ErrNotFitted {
		t.Fatalf("expected ErrNotFitted, got %v", err)
	}
	xs := genAR1(300, 0, 0.5, 1, 5)
	if err := m.Fit(timeseries.FromTargets(xs)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(xs, 0); err == nil {
		t.Fatal("steps=0 should error")
	}
	if _, err := m.Forecast(xs[:1], 1); err != timeseries.ErrShortContext {
		t.Fatalf("expected ErrShortContext, got %v", err)
	}
}

func TestFitRejectsShortSeries(t *testing.T) {
	m := New(2, 0, 2)
	if err := m.Fit(timeseries.FromTargets([]float64{1, 2, 3, 4, 5})); err == nil {
		t.Fatal("short series should fail to fit")
	}
}

func TestPredictMatchesForecast(t *testing.T) {
	xs := genAR1(400, 1, 0.6, 0.5, 6)
	m := New(1, 0, 0)
	series := timeseries.FromTargets(xs)
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	p1, err := m.Predict(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != fc[1] {
		t.Fatalf("Predict %v != Forecast[1] %v", p1, fc[1])
	}
}

func TestMinContext(t *testing.T) {
	if got := New(2, 1, 3).MinContext(); got != 5 {
		t.Fatalf("MinContext = %d want 5", got)
	}
}

func BenchmarkFitAR2MA1(b *testing.B) {
	xs := genAR1(1000, 0, 0.7, 1, 8)
	series := timeseries.FromTargets(xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(2, 0, 1)
		if err := m.Fit(series); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForecast(b *testing.B) {
	xs := genAR1(1000, 0, 0.7, 1, 9)
	m := New(2, 0, 1)
	if err := m.Fit(timeseries.FromTargets(xs)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forecast(xs, 5); err != nil {
			b.Fatal(err)
		}
	}
}
