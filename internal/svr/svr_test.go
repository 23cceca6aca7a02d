package svr

import (
	"math"
	"math/rand"
	"testing"

	"predstream/internal/timeseries"
)

func TestKernels(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	if got := (Linear{}).Eval(a, b); got != 11 {
		t.Fatalf("linear = %v", got)
	}
	k := RBF{Gamma: 0.5}
	want := math.Exp(-0.5 * 8) // ‖a-b‖²=8
	if got := k.Eval(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("rbf = %v want %v", got, want)
	}
	if k.Eval(a, a) != 1 {
		t.Fatal("rbf self-similarity != 1")
	}
}

func TestFitValidation(t *testing.T) {
	s := &SVR{}
	if err := s.FitXY(nil, nil); err == nil {
		t.Fatal("empty set should error")
	}
	if err := s.FitXY([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := s.FitXY([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged rows should error")
	}
}

func TestLinearSVRRecoversLine(t *testing.T) {
	// y = 2x fitted with a linear kernel must interpolate within ε.
	var x [][]float64
	var y []float64
	for i := -5; i <= 5; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, 2*float64(i))
	}
	s := &SVR{C: 100, Eps: 0.05, Kernel: Linear{}, MaxIter: 2000, Tol: 1e-8}
	if err := s.FitXY(x, y); err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		if got := s.PredictXY(xi); math.Abs(got-y[i]) > 0.2 {
			t.Fatalf("pred(%v) = %v want %v", xi, got, y[i])
		}
	}
}

func TestRBFSVRFitsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 80; i++ {
		v := rng.Float64()*6 - 3
		x = append(x, []float64{v})
		y = append(y, math.Sin(v))
	}
	s := &SVR{C: 10, Eps: 0.02, Kernel: RBF{Gamma: 1}, MaxIter: 2000, Tol: 1e-8}
	if err := s.FitXY(x, y); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i, xi := range x {
		if e := math.Abs(s.PredictXY(xi) - y[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.15 {
		t.Fatalf("max training error %v too high for sine fit", maxErr)
	}
	if len(s.x) == 0 {
		t.Fatal("no support vectors")
	}
	if len(s.x) > len(x) {
		t.Fatal("more SVs than points")
	}
}

func TestEpsilonTubeSparsifies(t *testing.T) {
	// A wide ε-tube around constant data needs no support vectors at all:
	// all targets within ±ε of 0 are already fit by the zero function.
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		x = append(x, []float64{rng.Float64()})
		y = append(y, 0.01*rng.NormFloat64())
	}
	s := &SVR{C: 1, Eps: 0.5, Kernel: RBF{Gamma: 1}}
	if err := s.FitXY(x, y); err != nil {
		t.Fatal(err)
	}
	if got := len(s.x); got != 0 {
		t.Fatalf("wide tube kept %d support vectors", got)
	}
}

func TestCBoundsCoefficients(t *testing.T) {
	// An outlier's coefficient saturates at C rather than chasing it.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 0, 1000}
	s := &SVR{C: 0.5, Eps: 0.01, Kernel: RBF{Gamma: 1}, MaxIter: 500}
	if err := s.FitXY(x, y); err != nil {
		t.Fatal(err)
	}
	for _, b := range s.beta {
		if math.Abs(b) > 0.5+1e-9 {
			t.Fatalf("coefficient %v exceeds C", b)
		}
	}
	// Bounded coefficients mean the outlier cannot be fit.
	if got := s.PredictXY([]float64{3}); got > 10 {
		t.Fatalf("outlier prediction %v should stay small under tight C", got)
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{0, 1}
	s := &SVR{C: 10, Eps: 0.01, Kernel: Linear{}, MaxIter: 10000, Tol: 1e-10}
	if err := s.FitXY(x, y); err != nil {
		t.Fatal(err)
	}
	if s.iters >= 10000 {
		t.Fatalf("solver used all %d sweeps without converging", s.iters)
	}
}

func TestWindowPredictorOnAR(t *testing.T) {
	// Oscillating AR(1) (φ=-0.6): persistence is badly wrong here, so a
	// working SVR must beat it by a wide margin.
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 600)
	for i := 1; i < len(xs); i++ {
		xs[i] = -0.6*xs[i-1] + rng.NormFloat64()
	}
	series := timeseries.FromTargets(xs)
	p := NewWindowPredictor(5, 1, &SVR{C: 10, Eps: 0.05, MaxIter: 200})
	res, err := timeseries.WalkForward(p, series, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := timeseries.WalkForward(&timeseries.NaivePredictor{}, series, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.RMSE >= naive.Report.RMSE {
		t.Fatalf("SVR RMSE %v should beat naive %v", res.Report.RMSE, naive.Report.RMSE)
	}
}

func TestWindowPredictorErrors(t *testing.T) {
	p := NewWindowPredictor(3, 1, nil)
	if _, err := p.Predict(timeseries.FromTargets([]float64{1, 2, 3}), 1); err != timeseries.ErrNotFitted {
		t.Fatalf("expected ErrNotFitted, got %v", err)
	}
	if err := p.Fit(timeseries.FromTargets([]float64{1, 2})); err == nil {
		t.Fatal("too-short training series should error")
	}
	long := make([]float64, 50)
	for i := range long {
		long[i] = float64(i % 5)
	}
	if err := p.Fit(timeseries.FromTargets(long)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(timeseries.FromTargets([]float64{1, 2}), 1); err != timeseries.ErrShortContext {
		t.Fatalf("expected ErrShortContext, got %v", err)
	}
	if _, err := p.Predict(timeseries.FromTargets(long), 2); err == nil {
		t.Fatal("horizon mismatch should error")
	}
}

func TestNewWindowPredictorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid window should panic")
		}
	}()
	NewWindowPredictor(0, 1, nil)
}

func BenchmarkFit200Windows(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = x[i][0] + math.Sin(x[i][1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &SVR{C: 1, Eps: 0.05, MaxIter: 100}
		if err := s.FitXY(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
