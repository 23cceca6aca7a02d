package nn

import (
	"math"
	"math/rand"
	"testing"

	"predstream/internal/mat"
)

// adamReferenceStep is Adam.Step in its plain form: every field read in
// the loop, both bias corrections divided out, the gradient zeroed after.
// Adam.Step must match it bit for bit.
func adamReferenceStep(a *Adam, params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			r, c := p.W.Dims()
			m = mat.New(r, c)
			a.m[p] = m
			a.v[p] = mat.New(r, c)
		}
		v := a.v[p]
		md, vd, gd, wd := m.Data(), v.Data(), p.Grad.Data(), p.W.Data()
		for i := range gd {
			g := gd[i]
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*g
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*g*g
			mHat := md[i] / bc1
			vHat := vd[i] / bc2
			wd[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.Grad.Zero()
	}
}

// TestAdamMatchesReference steps Adam and the reference on twin parameter
// sets with the same gradients, 600 steps from several starting step
// counts, so that every run crosses step 356, from which bc1 is exactly 1
// for β1 = 0.9 and Step skips its division. W,
// m and v must stay bit-equal, and every gradient must be zero after each
// step.
func TestAdamMatchesReference(t *testing.T) {
	equal := func(a, b *mat.Dense) bool {
		bd := b.Data()
		for i, x := range a.Data() {
			if math.Float64bits(x) != math.Float64bits(bd[i]) {
				return false
			}
		}
		return true
	}
	for _, t0 := range []int{0, 100, 300, 355} {
		rng := rand.New(rand.NewSource(int64(t0) + 1))
		dims := [][2]int{{7, 5}, {1, 13}, {16, 1}}
		var got, want []*Param
		for _, d := range dims {
			w := mat.New(d[0], d[1])
			for i := range w.Data() {
				w.Data()[i] = rng.NormFloat64()
			}
			got = append(got, newParam("p", w.Copy()))
			want = append(want, newParam("p", w))
		}
		opt, ref := NewAdam(1e-3), NewAdam(1e-3)
		opt.t, ref.t = t0, t0
		for step := 0; step < 600; step++ {
			for k := range got {
				for i := range got[k].Grad.Data() {
					// Mix scales, exact zeros and negative zeros.
					g := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-6))
					switch rng.Intn(16) {
					case 0:
						g = 0
					case 1:
						g = math.Copysign(0, -1)
					}
					got[k].Grad.Data()[i] = g
					want[k].Grad.Data()[i] = g
				}
			}
			opt.Step(got)
			adamReferenceStep(ref, want)
			for k := range got {
				if !equal(got[k].W, want[k].W) || !equal(opt.m[got[k]], ref.m[want[k]]) || !equal(opt.v[got[k]], ref.v[want[k]]) {
					t.Fatalf("start t=%d, step %d (t=%d), param %d: Adam and the reference differ in W, m or v", t0, step, opt.t, k)
				}
				for _, g := range got[k].Grad.Data() {
					if g != 0 {
						t.Fatalf("start t=%d, step %d, param %d: gradient %v left after Step", t0, step, k, g)
					}
				}
			}
		}
		if bc1 := 1 - math.Pow(opt.Beta1, float64(opt.t)); bc1 != 1 {
			t.Fatalf("start t=%d ended at t=%d with bc1 = %v, want past the step where it is exactly 1", t0, opt.t, bc1)
		}
	}
}
