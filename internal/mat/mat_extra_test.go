package mat

import (
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
