package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a := FromSlice(2, 2, []float64{2, 1, 1, 3})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3.
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := FromSlice(2, 2, []float64{0, 1, 1, 0})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("Solve with pivot = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 4})
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	if _, err := Solve(New(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("non-square should error")
	}
	if _, err := Solve(New(2, 2), []float64{1}); err == nil {
		t.Fatal("rhs mismatch should error")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := FromSlice(2, 2, []float64{2, 1, 1, 3})
	b := []float64{5, 10}
	orig := a.Copy()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if !a.EqualApprox(orig, 0) {
		t.Fatal("Solve mutated A")
	}
	if b[0] != 5 || b[1] != 10 {
		t.Fatal("Solve mutated b")
	}
}

func TestPropertySolveRoundTrip(t *testing.T) {
	// For well-conditioned random A, Solve(A, A·x) ≈ x.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 1
		rng := rand.New(rand.NewSource(seed))
		a := New(n, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		// Diagonal dominance guarantees invertibility.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresRecoversLine(t *testing.T) {
	// y = 3 + 2x with exact data.
	n := 10
	x := New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, float64(i))
		y[i] = 3 + 2*float64(i)
	}
	beta, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-3) > 1e-8 || math.Abs(beta[1]-2) > 1e-8 {
		t.Fatalf("beta = %v", beta)
	}
}

func TestLeastSquaresRidgeHandlesCollinear(t *testing.T) {
	// Identical columns are singular for OLS but solvable with ridge.
	n := 6
	x := New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i))
		x.Set(i, 1, float64(i))
		y[i] = 4 * float64(i)
	}
	if _, err := LeastSquares(x, y, 0); err == nil {
		t.Fatal("collinear OLS should fail")
	}
	beta, err := LeastSquares(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Ridge splits the weight between the twin columns: sum ≈ 4.
	if math.Abs(beta[0]+beta[1]-4) > 1e-3 {
		t.Fatalf("ridge beta = %v", beta)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(New(2, 3), []float64{1, 2}, 0); err == nil {
		t.Fatal("underdetermined should error")
	}
	if _, err := LeastSquares(New(2, 2), []float64{1}, 0); err == nil {
		t.Fatal("target mismatch should error")
	}
}

func TestGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m := New(3, 4).RandUniform(rng, 2)
	enc, err := m.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var out Dense
	if err := out.GobDecode(enc); err != nil {
		t.Fatal(err)
	}
	if !out.EqualApprox(m, 0) {
		t.Fatal("gob round-trip changed values")
	}
	if err := new(Dense).GobDecode([]byte("junk")); err == nil {
		t.Fatal("garbage gob should error")
	}
}

// BenchmarkLeastSquaresARIMAShape times the normal-equations solve at the
// shape ARIMA(3,0,1)'s long-AR stage fits on the benchmark's train_fit
// trace: 1390 rows by 9 regressors, so XᵀX is about 112k multiply-adds.
func BenchmarkLeastSquaresARIMAShape(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := New(1390, 9).RandUniform(rng, 1)
	y := make([]float64, x.Rows())
	for i := range y {
		y[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(x, y, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}
