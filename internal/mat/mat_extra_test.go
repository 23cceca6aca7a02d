package mat

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestAccessorsAndInPlaceOps(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("Rows/Cols = %d/%d", m.Rows(), m.Cols())
	}
	n := FromSlice(2, 3, []float64{1, 1, 1, 1, 1, 1})
	if got := m.AddInPlace(n); got != m {
		t.Fatal("AddInPlace did not return receiver")
	}
	if m.At(1, 2) != 7 {
		t.Fatalf("AddInPlace result = %v", m)
	}
	m.ScaleInPlace(2)
	if m.At(0, 0) != 4 {
		t.Fatalf("ScaleInPlace result = %v", m)
	}
	m.ApplyInPlace(func(v float64) float64 { return -v })
	if m.At(0, 0) != -4 {
		t.Fatalf("ApplyInPlace result = %v", m)
	}
	m.Fill(3)
	if m.Sum() != 18 {
		t.Fatalf("Fill sum = %v", m.Sum())
	}
	m.Zero()
	if m.Sum() != 0 {
		t.Fatalf("Zero sum = %v", m.Sum())
	}
}

func TestMulElem(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	got := a.MulElem(b)
	want := FromSlice(1, 3, []float64{4, 10, 18})
	if !got.EqualApprox(want, 0) {
		t.Fatalf("MulElem = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MulElem dimension mismatch did not panic")
		}
	}()
	a.MulElem(New(2, 2))
}

func TestEqualApproxDimensionMismatch(t *testing.T) {
	if New(2, 2).EqualApprox(New(2, 3), 1) {
		t.Fatal("different dims reported equal")
	}
	a := FromSlice(1, 1, []float64{1})
	b := FromSlice(1, 1, []float64{1.5})
	if a.EqualApprox(b, 0.1) {
		t.Fatal("out-of-tolerance reported equal")
	}
	if !a.EqualApprox(b, 1) {
		t.Fatal("in-tolerance reported unequal")
	}
}

func TestStringRendering(t *testing.T) {
	s := FromSlice(2, 2, []float64{1, 2, 3, 4}).String()
	if !strings.Contains(s, "2x2") || !strings.Contains(s, "1 2; 3 4") {
		t.Fatalf("String = %q", s)
	}
}

func TestPanicsOnMismatchedVectorOps(t *testing.T) {
	for name, fn := range map[string]func(){
		"Dot":      func() { Dot([]float64{1}, []float64{1, 2}) },
		"MulVec":   func() { New(2, 2).MulVec([]float64{1}) },
		"SetRow":   func() { New(2, 2).SetRow(0, []float64{1}) },
		"RowRange": func() { New(2, 2).Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGobDecodeRejectsInconsistentPayload(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	enc, err := m.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var out Dense
	if err := out.GobDecode(enc); err != nil {
		t.Fatal(err)
	}
	// Forged payload with mismatched dims.
	bad := denseWire{Rows: 3, Cols: 3, Data: []float64{1}}
	forged := encodeWire(t, bad)
	if err := new(Dense).GobDecode(forged); err == nil {
		t.Fatal("inconsistent payload accepted")
	}
	// Dimensions whose product wraps to the element count.
	wrapped := encodeWire(t, denseWire{Rows: 1 << 32, Cols: 1 << 32})
	if err := new(Dense).GobDecode(wrapped); err == nil {
		t.Fatal("overflowing dimensions accepted")
	}
}

func encodeWire(t *testing.T, w denseWire) []byte {
	t.Helper()
	var m Dense
	m.rows, m.cols, m.data = 1, 1, []float64{0}
	// Reuse GobEncode's wire format by hand-encoding via the same type.
	b, err := gobEncodeWire(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSolveZeroPivotAfterElimination(t *testing.T) {
	// A matrix that becomes singular during elimination (not at first
	// pivot).
	a := FromSlice(3, 3, []float64{
		1, 1, 1,
		1, 1, 2,
		2, 2, 3,
	})
	if _, err := Solve(a, []float64{1, 2, 3}); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// Row returns row i as a freshly allocated slice.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// SetRow copies v into row i. len(v) must equal Cols.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow got %d elements for %d columns", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// Add returns m + n. Dimensions must match.
func (m *Dense) Add(n *Dense) *Dense {
	m.sameDims(n, "Add")
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v + n.data[i]
	}
	return out
}

// Sub returns m - n. Dimensions must match.
func (m *Dense) Sub(n *Dense) *Dense {
	m.sameDims(n, "Sub")
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v - n.data[i]
	}
	return out
}

// Scale returns c*m.
func (m *Dense) Scale(c float64) *Dense {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = c * v
	}
	return out
}

// MulElem returns the Hadamard (element-wise) product m ∘ n.
func (m *Dense) MulElem(n *Dense) *Dense {
	m.sameDims(n, "MulElem")
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = v * n.data[i]
	}
	return out
}

// Apply returns a new matrix with f applied to every element.
func (m *Dense) Apply(f func(float64) float64) *Dense {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f to every element of m and returns m.
func (m *Dense) ApplyInPlace(f func(float64) float64) *Dense {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
	return m
}

// Sum returns the sum of all elements of m.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value of m.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// EqualApprox reports whether m and n have identical dimensions and all
// elements within tol of each other.
func (m *Dense) EqualApprox(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// FromSlice returns a rows×cols matrix backed by a copy of data, which must
// have exactly rows*cols elements in row-major order.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.data, data)
	return m
}
