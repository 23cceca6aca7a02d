package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLSTMBackwardSeq is LSTM.BackwardSeq as it was before the blocked
// kernels: one timestep at a time, weight-gradient outer products inside
// the time loop, one row per pass, rows with dz == 0 skipped. It is kept
// verbatim apart from allocating its own scratch and dX buffers, so that
// the blocked version can be checked against it bit for bit.
func refLSTMBackwardSeq(l *LSTM, dH [][]float64) [][]float64 {
	w := &l.ws
	if len(dH) != w.n {
		panic(fmt.Sprintf("nn: lstm backward got %d grads for %d cached steps", len(dH), w.n))
	}
	var dzBuf [numGates][]float64
	for g := range dzBuf {
		dzBuf[g] = make([]float64, l.Hidden)
	}
	dX := make([][]float64, w.n)
	for t := range dX {
		dX[t] = make([]float64, l.In)
	}
	dhNext, dcNext := make([]float64, l.Hidden), make([]float64, l.Hidden)
	dhPrev, dcPrev := make([]float64, l.Hidden), make([]float64, l.Hidden)
	dh, do, dc := make([]float64, l.Hidden), make([]float64, l.Hidden), make([]float64, l.Hidden)
	for t := w.n - 1; t >= 0; t-- {
		st := &w.steps[t]
		cPrev := w.zero
		hPrev := w.zero
		if t > 0 {
			cPrev = w.steps[t-1].c
			hPrev = w.steps[t-1].h
		}
		for i := range dh {
			dh[i] = dH[t][i] + dhNext[i]
		}
		f, in, gg, o := st.gates[gateF], st.gates[gateI], st.gates[gateG], st.gates[gateO]

		// Through h = o ∘ tanh(c).
		for i := range dh {
			do[i] = dh[i] * st.tanhC[i]
			dc[i] = dh[i]*o[i]*(1-st.tanhC[i]*st.tanhC[i]) + dcNext[i]
		}
		// Through c = f∘cPrev + i∘g.
		dz := &dzBuf
		for i := range dc {
			dcPrev[i] = dc[i] * f[i]
			dz[gateF][i] = dc[i] * cPrev[i] * f[i] * (1 - f[i])
			dz[gateI][i] = dc[i] * gg[i] * in[i] * (1 - in[i])
			dz[gateG][i] = dc[i] * in[i] * (1 - gg[i]*gg[i])
			dz[gateO][i] = do[i] * o[i] * (1 - o[i])
		}

		dx := dX[t]
		zeroVec(dx)
		zeroVec(dhPrev)
		for g := 0; g < numGates; g++ {
			dzg := dz[g]
			wxG, whG, bG := l.wx[g], l.wh[g], l.b[g]
			bd := bG.Grad.Data()
			for i, dv := range dzg {
				if dv == 0 {
					continue
				}
				// dWx += dz xᵀ, dWh += dz hPrevᵀ, db += dz.
				wxRow := wxG.Grad.Data()[i*l.In : (i+1)*l.In]
				for j, xv := range st.x {
					wxRow[j] += dv * xv
				}
				whRow := whG.Grad.Data()[i*l.Hidden : (i+1)*l.Hidden]
				for j, hv := range hPrev {
					whRow[j] += dv * hv
				}
				bd[i] += dv
				// dx += Wxᵀ dz, dhPrev += Whᵀ dz.
				wRow := wxG.W.Data()[i*l.In : (i+1)*l.In]
				for j, wv := range wRow {
					dx[j] += wv * dv
				}
				hRow := whG.W.Data()[i*l.Hidden : (i+1)*l.Hidden]
				for j, wv := range hRow {
					dhPrev[j] += wv * dv
				}
			}
		}
		dhNext, dhPrev = dhPrev, dhNext
		dcNext, dcPrev = dcPrev, dcNext
	}
	return dX
}

// randSeq returns n random vectors of width d; with zeroFrom < n, vectors
// from index zeroFrom on are all zero.
func randSeq(rng *rand.Rand, n, d, zeroFrom int) [][]float64 {
	out := make([][]float64, n)
	for t := range out {
		out[t] = make([]float64, d)
		if t >= zeroFrom {
			continue
		}
		for j := range out[t] {
			out[t][j] = rng.NormFloat64()
		}
	}
	return out
}

// TestLSTMBackwardMatchesReference pins the blocked BPTT to the per-step
// reference with ==: every weight, recurrent-weight and bias gradient and
// every ∂L/∂x_t, over hidden sizes that are and are not a multiple of the
// 4-row block and sequences shorter and longer than the 4-step block.
// Gradients start from non-zero values and take two sequences, as in a
// mini-batch, and one dH leaves the last steps at zero so some rows of dz
// are exactly zero.
func TestLSTMBackwardMatchesReference(t *testing.T) {
	const in = 9
	for _, hidden := range []int{3, 5, 32} {
		for _, n := range []int{1, 3, 10} {
			t.Run(fmt.Sprintf("h%d_n%d", hidden, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*hidden + n)))
				base := NewLSTM(in, hidden, rng)
				got, want := base.Replicate().(*LSTM), base.Replicate().(*LSTM)
				for pi, p := range got.Params() {
					q := want.Params()[pi]
					for k := range p.Grad.Data() {
						v := rng.NormFloat64()
						p.Grad.Data()[k], q.Grad.Data()[k] = v, v
					}
				}
				for pass, zeroFrom := range []int{n, (n + 1) / 2} {
					seq := randSeq(rng, n, in, n)
					dH := randSeq(rng, n, hidden, zeroFrom)
					got.ForwardSeq(seq)
					want.ForwardSeq(seq)
					gotDX := got.BackwardSeq(dH)
					wantDX := refLSTMBackwardSeq(want, dH)
					for s := range wantDX {
						for j := range wantDX[s] {
							if gotDX[s][j] != wantDX[s][j] {
								t.Fatalf("pass %d: dX[%d][%d] = %v, reference %v", pass, s, j, gotDX[s][j], wantDX[s][j])
							}
						}
					}
					for pi, p := range got.Params() {
						q := want.Params()[pi]
						for k, v := range p.Grad.Data() {
							if v != q.Grad.Data()[k] {
								t.Fatalf("pass %d: %s grad[%d] = %v, reference %v", pass, p.Name, k, v, q.Grad.Data()[k])
							}
						}
					}
				}
			})
		}
	}
}

// BenchmarkLSTMBackwardSeq times one BackwardSeq at the model's shape (9
// features, hidden 32, 10 steps) against the per-step reference.
func BenchmarkLSTMBackwardSeq(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(9, 32, rng)
	seq := randSeq(rng, 10, 9, 10)
	dH := randSeq(rng, 10, 32, 10)
	l.ForwardSeq(seq)
	b.Run("blocked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.BackwardSeq(dH)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refLSTMBackwardSeq(l, dH)
		}
	})
}
