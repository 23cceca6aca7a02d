package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestMulVecToMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(5, 3).RandUniform(rng, 1)
	v := []float64{0.5, -1.25, 2}
	want := m.MulVec(v)
	dst := make([]float64, 5)
	got := m.MulVecTo(dst, v)
	if &got[0] != &dst[0] {
		t.Fatal("MulVecTo did not return dst")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecTo[%d] = %v want %v", i, got[i], want[i])
		}
	}
	// MulVecTo overwrites stale contents.
	for i := range dst {
		dst[i] = 99
	}
	m.MulVecTo(dst, v)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecTo did not overwrite dst[%d]", i)
		}
	}
}

func TestMulVecAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(4, 2).RandUniform(rng, 1)
	v := []float64{1.5, -0.5}
	base := []float64{1, 2, 3, 4}
	dst := append([]float64(nil), base...)
	m.MulVecAdd(dst, v)
	prod := m.MulVec(v)
	for i := range dst {
		if dst[i] != base[i]+prod[i] {
			t.Fatalf("MulVecAdd[%d] = %v want %v", i, dst[i], base[i]+prod[i])
		}
	}
}

func TestMulVecToDimensionChecks(t *testing.T) {
	m := New(3, 2)
	for _, fn := range []func(){
		func() { m.MulVecTo(make([]float64, 3), make([]float64, 3)) },
		func() { m.MulVecTo(make([]float64, 2), make([]float64, 2)) },
		func() { m.MulVecAdd(make([]float64, 3), make([]float64, 1)) },
		func() { m.MulVecAdd(make([]float64, 4), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("dimension mismatch did not panic")
				}
			}()
			fn()
		}()
	}
}

// refMulVec is the row-at-a-time GEMV the blocked kernel replaced, kept as
// the bitwise reference: dst[i] = Σ_j m[i][j]·v[j], summed over j in order,
// added to dst[i] when accumulate is set.
func refMulVec(m *Dense, dst, v []float64, accumulate bool) {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		if accumulate {
			dst[i] += s
		} else {
			dst[i] = s
		}
	}
}

// TestMulVecMatchesReferenceBitwise pins the 4-row blocked GEMV to the
// plain loop with ==, not a tolerance, over every row remainder (1–9 rows)
// and the model's column widths.
func TestMulVecMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for rows := 1; rows <= 9; rows++ {
		for _, cols := range []int{1, 9, 32, 41} {
			m := New(rows, cols).RandUniform(rng, 1)
			v := make([]float64, cols)
			base := make([]float64, rows)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			for i := range base {
				base[i] = rng.NormFloat64()
			}
			for _, accumulate := range []bool{false, true} {
				want := append([]float64(nil), base...)
				got := append([]float64(nil), base...)
				refMulVec(m, want, v, accumulate)
				if accumulate {
					m.MulVecAdd(got, v)
				} else {
					m.MulVecTo(got, v)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%dx%d accumulate=%v: row %d = %v, reference %v", rows, cols, accumulate, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkMulVecTo times the blocked GEMV against the row-at-a-time
// reference at the model's shapes: one gate's input weights (32×9), one
// gate's recurrent weights (32×32), and the serving layer's stacked gates
// over input and hidden (128×41).
func BenchmarkMulVecTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{32, 9}, {32, 32}, {128, 41}} {
		m := New(shape[0], shape[1]).RandUniform(rng, 1)
		v := make([]float64, shape[1])
		for j := range v {
			v[j] = rng.Float64()
		}
		dst := make([]float64, shape[0])
		name := fmt.Sprintf("%dx%d", shape[0], shape[1])
		b.Run(name+"/blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulVecTo(dst, v)
			}
		})
		b.Run(name+"/rowwise", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refMulVec(m, dst, v, false)
			}
		})
	}
}
