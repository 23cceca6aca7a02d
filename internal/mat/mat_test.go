package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDims(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromSliceRoundTrip(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	// FromSlice must copy: mutating the source must not affect the matrix.
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromSlice aliases its input")
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7.5)
	if got := m.At(1, 0); got != 7.5 {
		t.Fatalf("At(1,0) = %v want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{2, 0}, {0, 2}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestRowSetRow(t *testing.T) {
	m := New(2, 3)
	m.SetRow(1, []float64{4, 5, 6})
	row := m.Row(1)
	if row[0] != 4 || row[1] != 5 || row[2] != 6 {
		t.Fatalf("Row(1) = %v", row)
	}
	// Row must return a copy.
	row[0] = 99
	if m.At(1, 0) != 4 {
		t.Fatal("Row aliases matrix storage")
	}
}

func TestAddSub(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	sum := a.Add(b)
	want := FromSlice(2, 2, []float64{11, 22, 33, 44})
	if !sum.EqualApprox(want, 0) {
		t.Fatalf("Add = %v", sum)
	}
	diff := sum.Sub(b)
	if !diff.EqualApprox(a, 0) {
		t.Fatalf("Sub = %v", diff)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := a.MatMul(b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.EqualApprox(want, 1e-12) {
		t.Fatalf("MatMul = %v want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 5).RandUniform(rng, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !a.MatMul(id).EqualApprox(a, 1e-12) {
		t.Fatal("A×I != A")
	}
	if !id.MatMul(a).EqualApprox(a, 1e-12) {
		t.Fatal("I×A != A")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Compare a 64×64 product (262k multiply-adds) with a naive reference.
	rng := rand.New(rand.NewSource(2))
	const n = 64
	a := New(n, n).RandUniform(rng, 1)
	b := New(n, n).RandUniform(rng, 1)
	got := a.MatMul(b)
	ref := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			ref.Set(i, j, s)
		}
	}
	if !got.EqualApprox(ref, 1e-9) {
		t.Fatal("parallel MatMul diverges from naive reference")
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched dims did not panic")
		}
	}()
	New(2, 3).MatMul(New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.T()
	if r, c := at.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := a.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestApplyAndScale(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, -2, 3})
	abs := a.Apply(math.Abs)
	if abs.At(0, 1) != 2 {
		t.Fatalf("Apply abs = %v", abs)
	}
	if a.At(0, 1) != -2 {
		t.Fatal("Apply mutated receiver")
	}
	s := a.Scale(2)
	if s.At(0, 2) != 6 {
		t.Fatalf("Scale = %v", s)
	}
}

func TestCopyIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Copy()
	b.Set(0, 0, 100)
	if a.At(0, 0) != 1 {
		t.Fatal("Copy shares storage")
	}
}

func TestNormSumMaxAbs(t *testing.T) {
	a := FromSlice(1, 4, []float64{3, -4, 0, 0})
	if got := a.Norm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm = %v want 5", got)
	}
	if got := a.Sum(); got != -1 {
		t.Fatalf("Sum = %v want -1", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v want 4", got)
	}
}

func TestDotAndVecOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestCloneVec(t *testing.T) {
	a := []float64{1, 2}
	b := CloneVec(a)
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("CloneVec aliases input")
	}
}

func TestRandInitializersBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(20, 30).RandXavier(rng)
	limit := math.Sqrt(6.0 / 50.0)
	for _, v := range m.Data() {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier value %v exceeds limit %v", v, limit)
		}
	}
	u := New(4, 4).RandUniform(rng, 0.5)
	for _, v := range u.Data() {
		if math.Abs(v) > 0.5 {
			t.Fatalf("Uniform value %v exceeds 0.5", v)
		}
	}
	// He init is unbounded; only check it produces variation.
	h := New(10, 10).RandHe(rng)
	if h.Norm() == 0 {
		t.Fatal("He init produced all zeros")
	}
}

// randMatrix builds a bounded random matrix for property tests.
func randMatrix(rng *rand.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestPropertyAddCommutative(t *testing.T) {
	f := func(seed int64, r, c uint8) bool {
		rows, cols := int(r%8)+1, int(c%8)+1
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, rows, cols)
		b := randMatrix(rng, rows, cols)
		return a.Add(b).EqualApprox(b.Add(a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(seed int64, r, c uint8) bool {
		rows, cols := int(r%8)+1, int(c%8)+1
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, rows, cols)
		return a.T().T().EqualApprox(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMatMulTransposeIdentity(t *testing.T) {
	// (AB)ᵀ = BᵀAᵀ
	f := func(seed int64, r, k, c uint8) bool {
		m, n, p := int(r%6)+1, int(k%6)+1, int(c%6)+1
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, m, n)
		b := randMatrix(rng, n, p)
		return a.MatMul(b).T().EqualApprox(b.T().MatMul(a.T()), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMatMulDistributesOverAdd(t *testing.T) {
	// A(B+C) = AB + AC
	f := func(seed int64, r, k, c uint8) bool {
		m, n, p := int(r%6)+1, int(k%6)+1, int(c%6)+1
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, m, n)
		b := randMatrix(rng, n, p)
		cm := randMatrix(rng, n, p)
		left := a.MatMul(b.Add(cm))
		right := a.MatMul(b).Add(a.MatMul(cm))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDotMulVecConsistent(t *testing.T) {
	// Row i of (M v) equals Dot(M.Row(i), v).
	f := func(seed int64, r, c uint8) bool {
		rows, cols := int(r%8)+1, int(c%8)+1
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, rows, cols)
		v := make([]float64, cols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		mv := m.MulVec(v)
		for i := 0; i < rows; i++ {
			if math.Abs(mv[i]-Dot(m.Row(i), v)) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := New(64, 64).RandUniform(rng, 1)
	y := New(64, 64).RandUniform(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatMul(y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := New(256, 256).RandUniform(rng, 1)
	y := New(256, 256).RandUniform(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatMul(y)
	}
}
