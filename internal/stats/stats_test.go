package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestMinMaxMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if got := Median(xs); got != 5 {
		t.Fatalf("Median = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("P0 (min) = %v", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Fatalf("P100 (max) = %v", got)
	}
	// 25th percentile of sorted {1,3,5,7,9}: rank 1.0 → 3.
	if got := Percentile(xs, 25); got != 3 {
		t.Fatalf("P25 = %v", got)
	}
	if got := Percentile([]float64{42}, 73); got != 42 {
		t.Fatalf("single-element percentile = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"empty", func() { Percentile(nil, 50) }},
		{"low", func() { Percentile([]float64{1}, -1) }},
		{"high", func() { Percentile([]float64{1}, 101) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestMAEAndRMSE(t *testing.T) {
	actual := []float64{1, 2, 3}
	pred := []float64{2, 2, 5}
	if got := MAE(actual, pred); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("MAE = %v want 1", got)
	}
	want := math.Sqrt((1.0 + 0 + 4) / 3)
	if got := RMSE(actual, pred); !almostEqual(got, want, 1e-12) {
		t.Fatalf("RMSE = %v want %v", got, want)
	}
	if MAE(nil, nil) != 0 || RMSE(nil, nil) != 0 {
		t.Fatal("empty metrics should be 0")
	}
}

func TestMAPE(t *testing.T) {
	actual := []float64{100, 200}
	pred := []float64{110, 180}
	// |10/100| + |20/200| = 0.2 → mean 0.1 → 10%
	if got := MAPE(actual, pred); !almostEqual(got, 10, 1e-12) {
		t.Fatalf("MAPE = %v want 10", got)
	}
	// Zero actuals are skipped.
	if got := MAPE([]float64{0, 100}, []float64{5, 110}); !almostEqual(got, 10, 1e-12) {
		t.Fatalf("MAPE with zero actual = %v want 10", got)
	}
	if got := MAPE([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Fatalf("MAPE all-zero actual = %v want 0", got)
	}
}

func TestSMAPE(t *testing.T) {
	// a=100 p=100 → 0; a=100 p=50 → 50/150.
	got := SMAPE([]float64{100, 100}, []float64{100, 50})
	want := 200 * (50.0 / 150.0) / 2
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("SMAPE = %v want %v", got, want)
	}
	if got := SMAPE([]float64{0}, []float64{0}); got != 0 {
		t.Fatalf("SMAPE(0,0) = %v", got)
	}
}

func TestR2(t *testing.T) {
	actual := []float64{1, 2, 3, 4}
	if got := R2(actual, actual); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("perfect R2 = %v", got)
	}
	mean := Mean(actual)
	meanPred := []float64{mean, mean, mean, mean}
	if got := R2(actual, meanPred); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("mean-predictor R2 = %v", got)
	}
	if got := R2([]float64{5, 5}, []float64{4, 6}); got != 0 {
		t.Fatalf("constant-actual R2 = %v", got)
	}
}

func TestMetricsPanicOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	MAE([]float64{1}, []float64{1, 2})
}

func TestPropertyMetricInequalities(t *testing.T) {
	// MAE ≤ RMSE (Jensen) and both are non-negative, for any pair of
	// series; MAPE and sMAPE are non-negative.
	f := func(seed int64, n uint8) bool {
		ln := int(n%30) + 1
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, ln)
		p := make([]float64, ln)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			p[i] = rng.NormFloat64() * 10
		}
		mae, rmse := MAE(a, p), RMSE(a, p)
		if mae < 0 || rmse < 0 || mae > rmse+1e-9 {
			return false
		}
		return MAPE(a, p) >= 0 && SMAPE(a, p) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateReport(t *testing.T) {
	r := Evaluate("drnn", []float64{1, 2}, []float64{1, 2})
	if r.Model != "drnn" || r.MAE != 0 || r.RMSE != 0 || r.MAPE != 0 {
		t.Fatalf("Report = %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestDiffAndUndiff(t *testing.T) {
	xs := []float64{1, 3, 6, 10}
	d1, err := Diff(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if d1[i] != want[i] {
			t.Fatalf("Diff = %v", d1)
		}
	}
	levels := Undiff(xs[len(xs)-1], []float64{5, 6})
	if levels[0] != 15 || levels[1] != 21 {
		t.Fatalf("Undiff = %v", levels)
	}
	d0, err := Diff(xs, 0)
	if err != nil || len(d0) != len(xs) {
		t.Fatalf("Diff d=0 = %v, %v", d0, err)
	}
	if _, err := Diff([]float64{1}, 1); err == nil {
		t.Fatal("Diff of length-1 series should error")
	}
	if _, err := Diff(xs, -1); err == nil {
		t.Fatal("negative d should error")
	}
}

func TestPropertyDiffUndiffRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		ln := int(n%20) + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, ln)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		d, err := Diff(xs, 1)
		if err != nil {
			return false
		}
		back := Undiff(xs[0], d)
		for i := 1; i < ln; i++ {
			if !almostEqual(back[i-1], xs[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStandardScaler(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := FitStandard(xs)
	zs := s.TransformAll(xs)
	if !almostEqual(Mean(zs), 0, 1e-12) || !almostEqual(StdDev(zs), 1, 1e-12) {
		t.Fatalf("scaled mean/std = %v/%v", Mean(zs), StdDev(zs))
	}
	back := s.InverseAll(zs)
	for i := range xs {
		if !almostEqual(back[i], xs[i], 1e-12) {
			t.Fatalf("inverse round-trip = %v", back)
		}
	}
	c := FitStandard([]float64{7, 7, 7})
	if got := c.Transform(7); got != 0 {
		t.Fatalf("constant scaler transform = %v", got)
	}
}

func TestPropertyScalerRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		ln := int(n%30) + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, ln)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := FitStandard(xs)
		for _, x := range xs {
			if !almostEqual(s.Inverse(s.Transform(x)), x, 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsFiniteSeries(t *testing.T) {
	if !IsFiniteSeries([]float64{1, 2, 3}) {
		t.Fatal("finite series reported non-finite")
	}
	if IsFiniteSeries([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if IsFiniteSeries([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
}
