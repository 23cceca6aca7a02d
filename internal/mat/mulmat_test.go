package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mulMatRef is the obvious per-row reference: row b of dst = m × row b of x.
func mulMatRef(m, x *Dense) *Dense {
	dst := New(x.Rows(), m.Rows())
	for b := 0; b < x.Rows(); b++ {
		dst.SetRow(b, m.MulVec(x.Row(b)))
	}
	return dst
}

func TestMulMatToMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range []struct{ out, in, batch int }{
		{1, 1, 1}, {3, 5, 1}, {5, 3, 2}, {4, 4, 3}, {8, 16, 4},
		{16, 8, 5}, {32, 9, 7}, {7, 32, 8}, {13, 11, 17},
	} {
		m := New(dims.out, dims.in).RandUniform(rng, 1)
		x := New(dims.batch, dims.in).RandUniform(rng, 1)
		want := mulMatRef(m, x)
		got := m.MulMatTo(New(dims.batch, dims.out), x)
		if !got.EqualApprox(want, 1e-12) {
			t.Fatalf("MulMatTo mismatch for %dx%d × batch %d", dims.out, dims.in, dims.batch)
		}
		// MulMatAdd on a non-zero destination adds the same product.
		acc := New(dims.batch, dims.out)
		acc.Fill(0.5)
		m.MulMatAdd(acc, x)
		for b := 0; b < dims.batch; b++ {
			for i := 0; i < dims.out; i++ {
				if math.Abs(acc.At(b, i)-(want.At(b, i)+0.5)) > 1e-12 {
					t.Fatalf("MulMatAdd mismatch at (%d,%d)", b, i)
				}
			}
		}
	}
}

func TestMulMatToPanicsOnDimMismatch(t *testing.T) {
	m := New(3, 4)
	cases := []struct{ dst, x *Dense }{
		{New(2, 2), New(2, 4)}, // dst cols != m rows
		{New(3, 3), New(2, 4)}, // dst rows != x rows
		{New(2, 3), New(2, 5)}, // x cols != m cols
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			m.MulMatTo(c.dst, c.x)
		}()
	}
}

// BenchmarkMulMatTo measures the batched GEMM against the per-row GEMV
// loop it replaces, at the DRNN serving shape (gate matrix 32×32, batch
// B windows).
func BenchmarkMulMatTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, batch := range []int{1, 8, 32, 64} {
		m := New(32, 32).RandUniform(rng, 1)
		x := New(batch, 32).RandUniform(rng, 1)
		dst := New(batch, 32)
		b.Run(fmt.Sprintf("B%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.MulMatTo(dst, x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
		})
	}
}

// BenchmarkMulVecToLoop is the baseline BenchmarkMulMatTo beats: the same
// work issued as B independent GEMVs.
func BenchmarkMulVecToLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, batch := range []int{1, 8, 32, 64} {
		m := New(32, 32).RandUniform(rng, 1)
		x := New(batch, 32).RandUniform(rng, 1)
		dst := New(batch, 32)
		b.Run(fmt.Sprintf("B%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := 0; r < batch; r++ {
					m.MulVecTo(dst.Data()[r*32:(r+1)*32], x.Data()[r*32:(r+1)*32])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
		})
	}
}
